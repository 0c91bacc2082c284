#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (the build cache lives
# there too, so nothing is written outside the checkout) and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash bench/run.sh -seed 1                       every workload, both passes
#   bash bench/run.sh -workload serve_small -trace 0 -seed 7 -seconds 20
#   bash bench/run.sh -compare bench/results/seed-a.json bench/results/seed-b.json
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# HOME moves too: the go command keeps its module cache and its telemetry
# counters under it.
(cd bench && env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go" \
	GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local \
	go build -o "$build/nbody-bench" .) >&2
exec "$build/nbody-bench" "$@"
