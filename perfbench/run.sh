#!/usr/bin/env bash
# Builds the benchmark and semkgd from the checkout's source, then runs one
# benchmark workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload exact-1m --seed 1 --seconds 10 --trace 0
#
# Everything it builds, caches or writes stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/semkgd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a semkg checkout (go.mod, cmd/semkgd and perfbench/ are needed)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
# Keep the go command's caches, temporary files and config (telemetry
# included) inside the checkout, and never reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off

go build -o "$build/bin/semkgd" ./cmd/semkgd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
