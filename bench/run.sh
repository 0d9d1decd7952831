#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload spray --seed 42 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) lands under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# Keep the toolchain local and every cache, including the go command's
# config and telemetry directory, inside the checkout.
export GOTOOLCHAIN=local
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"

go build -C bench -o "$out/stellar-bench" .
exec "$out/stellar-bench" "$@"
