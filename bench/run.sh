#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash bench/run.sh --workload dd-hot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build and module caches, the
# binary and trace artifacts all live under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench/run.sh: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd bench && go build -o "$out/adelie-bench" .)
exec "$out/adelie-bench" "$@"
