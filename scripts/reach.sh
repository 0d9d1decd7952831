#!/usr/bin/env bash
# Reach gate: lists every function that no figure, CLI path, example or
# bench cell runs, and fails unless that list matches scripts/reach.allow
# exactly.
#
# It builds stellarbench, the two examples and the bench binary with
# coverage over the whole module, runs the union below with GOCOVERDIR
# set, and reads per-function coverage with `go tool covdata func`:
#
#   - stellarbench -exp all -seed 42 -json (every paper figure);
#   - the chaos pair at -parallel 1 and 4 on examples/chaos/uplink-gray.json;
#   - every examples/jobgraph graph replayed by stellarbench -jobgraph;
#   - the quickstart and crosshost examples, crosshost traced;
#   - a traced stellarbench run (host, network, chaos and recovery spans);
#   - one traced bench pass (bench -seed 42 -trace 1).
#
# A function is keyed by "file function" (path relative to the module
# root), so editing lines above it does not churn the list. The script
# exits 1 if a never-run function has no allowlist entry, or if an
# allowlist entry now runs or no longer exists: the list can only stay
# exact or shrink. Run it from anywhere:
#
#   bash scripts/reach.sh
#
# It writes the never-run list to .reach_build/never-run.txt and prints
# the function count and statement coverage of the union.
set -euo pipefail
export LC_ALL=C # one collation for sort and comm

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.reach_build"
rm -rf "$out"
mkdir -p "$out/bin" "$out/cov" "$out/run"

go build -cover -coverpkg=./... -o "$out/bin/" ./cmd/... ./examples/...
go build -C bench -cover -coverpkg=repro/... -o "$out/bin/stellar-bench" .

# leg runs one command of the union with coverage on; its output goes to
# a log in case a leg fails.
leg() {
	local name=$1
	shift
	if ! GOCOVERDIR="$out/cov" "$@" >"$out/run/$name.log" 2>&1; then
		echo "reach: leg $name failed: $*" >&2
		tail -20 "$out/run/$name.log" >&2
		exit 1
	fi
}

bin="$out/bin"
leg all "$bin/stellarbench" -exp all -seed 42 -json
armed=fig9,fig11,fig12,linkfail-recovery,contended-cluster
leg chaos1 "$bin/stellarbench" -exp $armed -seed 42 -chaos examples/chaos/uplink-gray.json -parallel 1 -json
leg chaos4 "$bin/stellarbench" -exp $armed -seed 42 -chaos examples/chaos/uplink-gray.json -parallel 4 -json
for g in examples/jobgraph/*.json; do
	leg "bench-$(basename "$g" .json)" "$bin/stellarbench" -jobgraph "$g" -seed 42 -json
done
leg quickstart "$bin/quickstart"
leg crosshost "$bin/crosshost" -trace "$out/run/crosshost.json"
leg traced "$bin/stellarbench" -exp fig12,sec4,fig14,fig8,chaos-recovery,linkfail-recovery,moe-alltoall -seed 42 -trace "$out/run/trace.json"
leg bench "$bin/stellar-bench" -seed 42 -trace 1 -trace-dir "$out/run/bench-trace"

# "file function" for every function at 0.0 %, bench's own main package
# excluded: the gate covers the module, and bench/ is measured, not gated.
go tool covdata func -i="$out/cov" >"$out/func.txt"
awk -F'\t+' '$NF == "0.0%" {
	file = $1; sub(/^repro\//, "", file); sub(/:[0-9]+:$/, "", file)
	if (file !~ /^bench\//) print file, $2
}' "$out/func.txt" | sort -u >"$out/never-run.txt"
funcs=$(grep -vc '^total' "$out/func.txt" || true)
never=$(wc -l <"$out/never-run.txt")
cover=$(awk '$1 == "total" {print $NF}' "$out/func.txt")
echo "reach: $never of $funcs functions never run; statement coverage $cover"

# An allowlist line is "file function tag reason...". Blank lines and
# lines starting with # are comments. Every entry needs a known tag.
allow="$root/scripts/reach.allow"
tags='^(paper-test|test-ref|self-test|input|fmt|error|branch|empty)$'
status=0
grep -v -e '^#' -e '^[[:space:]]*$' "$allow" >"$out/allow.txt" || true
if bad=$(awk -v tags="$tags" 'NF < 4 || $3 !~ tags' "$out/allow.txt") && [ -n "$bad" ]; then
	echo "reach: allowlist entries without a known tag and a reason:" >&2
	echo "$bad" >&2
	status=1
fi
awk '{print $1, $2}' "$out/allow.txt" | sort -u >"$out/allowed.txt"
if unlisted=$(comm -23 "$out/never-run.txt" "$out/allowed.txt") && [ -n "$unlisted" ]; then
	echo "reach: never-run functions missing from scripts/reach.allow (delete them or allowlist them with a tag):" >&2
	echo "$unlisted" >&2
	status=1
fi
if stale=$(comm -13 "$out/never-run.txt" "$out/allowed.txt") && [ -n "$stale" ]; then
	echo "reach: allowlist entries that now run or no longer exist (remove them):" >&2
	echo "$stale" >&2
	status=1
fi
exit $status
