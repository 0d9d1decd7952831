#!/usr/bin/env bash
# Output identity: the repository's output contract end to end. Every
# leg must print the bytes whose md5 scripts/identity.md5 pins:
#
#   all-p1, all-p4  stellarbench -exp all -seed 42 -json at -parallel 1
#                   and 4 (the scale fabrics and fig6-fleet run on one
#                   shard per worker, so this also varies the shard count);
#   all-386         the same batch from a GOARCH=386 build at -parallel 2,
#                   where int is 32 bits: output may not depend on the
#                   width of int or of the packet's fields;
#   chaos-p1,       the armed experiments under examples/chaos/uplink-gray.json
#   chaos-p4        (a gray uplink plus a timed link-down) at -parallel 1
#                   and 4.
#
# Agreement between the 1- and 4-worker legs follows from both matching
# the pinned digest. A change that alters what the model prints updates
# scripts/identity.md5 in its own diff. The script prints every leg's
# digest and exits 1 naming the first leg that differs. The 386 binary
# runs directly on an amd64 Linux host. Run it from anywhere:
#
#   bash scripts/identity.sh
#
# Each leg's output stays in .identity_build/ for diffing.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.identity_build"
rm -rf "$out"
mkdir -p "$out"

go build -o "$out/stellarbench" ./cmd/stellarbench
GOARCH=386 go build -o "$out/stellarbench-386" ./cmd/stellarbench

pinned() { awk -v k="$1" '$2 == k {print $1}' scripts/identity.md5; }
want_all=$(pinned all)
want_chaos=$(pinned chaos)

first=""
# leg runs one command, prints the md5 of its output and remembers the
# first leg whose digest is not the pinned one.
leg() {
	local name=$1 want=$2
	shift 2
	if ! "$@" >"$out/$name.json"; then
		echo "identity: leg $name failed: $*" >&2
		exit 1
	fi
	local got
	got=$(md5sum <"$out/$name.json" | cut -c1-32)
	echo "$got  $name"
	if [ "$got" != "$want" ] && [ -z "$first" ]; then
		first=$name
	fi
}

sb="$out/stellarbench"
armed=fig9,fig11,fig12,linkfail-recovery,contended-cluster
chaos=(-exp "$armed" -seed 42 -chaos examples/chaos/uplink-gray.json -json)
leg all-p1 "$want_all" "$sb" -exp all -seed 42 -parallel 1 -json
leg all-p4 "$want_all" "$sb" -exp all -seed 42 -parallel 4 -json
leg all-386 "$want_all" "$out/stellarbench-386" -exp all -seed 42 -parallel 2 -json
leg chaos-p1 "$want_chaos" "$sb" "${chaos[@]}" -parallel 1
leg chaos-p4 "$want_chaos" "$sb" "${chaos[@]}" -parallel 4

if [ -n "$first" ]; then
	echo "identity: leg $first differs from scripts/identity.md5" >&2
	exit 1
fi
echo "identity: all 5 legs match scripts/identity.md5"
