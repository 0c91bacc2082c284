#!/bin/sh
# Load test of the nbodyd solver service: for each (policy, overload-mode)
# pair, starts an in-process server on a loopback port, drives the
# synthetic tenant mix against it over real HTTP, and prints the markdown
# comparison table (shed/degraded/late counts, p50/p95/p99 latency,
# goodput, plan-cache hit rate). Exits nonzero if any well-behaved tenant
# drew a 5xx or a transport error. Writes nothing: the table on stdout is
# the result.
#
#   scripts/loadtest.sh                         # default mix, 5s per run
#   DURATION=10s scripts/loadtest.sh            # longer runs
#   NBODY_BACKEND=scalar scripts/loadtest.sh    # pin a backend
#   ARRIVAL=open REQ_DEADLINE=2s scripts/loadtest.sh   # true overload
#   TENANTS="hog:8:4096,light:1:512" QUEUE=4 scripts/loadtest.sh
#
# The contended default mix pairs a hungry multi-shape tenant against light
# ones so the fifo-vs-fair difference (per-tenant tail latency under one
# tenant's burst) is visible in the per-tenant breakdown on stderr.
set -e

DURATION="${DURATION:-5s}"
TENANTS="${TENANTS:-hog:8:2048:4096,light:2:512,steady:2:1024}"
QUEUE="${QUEUE:-16}"
INFLIGHT="${INFLIGHT:-2}"
POLICIES="${POLICIES:-fifo,fair}"
OVERLOAD="${OVERLOAD:-on}"
ARRIVAL="${ARRIVAL:-closed}"
REQ_DEADLINE="${REQ_DEADLINE:-0s}"

cd "$(dirname "$0")/.."

go run ./cmd/nbodyd -loadtest \
    -duration "$DURATION" \
    -tenants "$TENANTS" \
    -queue-depth "$QUEUE" \
    -inflight "$INFLIGHT" \
    -policies "$POLICIES" \
    -overload "$OVERLOAD" \
    -arrival "$ARRIVAL" \
    -req-deadline "$REQ_DEADLINE" \
    "$@"
