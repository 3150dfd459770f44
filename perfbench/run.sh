#!/usr/bin/env bash
# perfbench/run.sh — build durserve and the perfbench harness from this
# checkout, then run the benchmark with the given flags (see
# perfbench/README.md). Binaries, the Go build cache, temporary files and
# the daemons' data directories and logs all stay under .bench_build/.
#
#   bash perfbench/run.sh --workload query-mix --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --runs 5
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/durserve ]; then
	echo "perfbench: not a checkout of the repository (no go.mod or cmd/durserve under $PWD)" >&2
	exit 2
fi
build=$PWD/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$build/bin/durserve" ./cmd/durserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -durserve "$build/bin/durserve" -work "$build/work" "$@"
