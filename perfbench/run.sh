#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is run
# in, then runs it with the given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# stores, trace files) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/store || ! -d pkg/client || ! -f perfbench/go.mod ]]; then
	echo "perfbench: not at the root of a utcq checkout (go.mod, internal/, pkg/ or perfbench/ missing)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
