#!/bin/sh
# Static check keeping the phase-runner refactor honest: solvers declare
# their phases through internal/pipeline, which owns the metrics spans and
# fault-injection sites. Outside the runner itself (and the instrumented
# layers internal/metrics / internal/faults), no non-test source may open a
# span or fire a fault site directly. The serving layer is the one
# exception: its sites (serve/enqueue|dequeue|worker) are transport-level
# chaos points on the dispatcher, not solver phases — there is no span to
# pair them with, so they fire directly. Run from the repository root:
#
#   scripts/check_pipeline.sh
set -eu

bad=$(grep -rn --include='*.go' \
        -e 'metrics\.Span' -e '\.Begin(' -e 'faults\.Fire' \
        cmd internal ./*.go \
    | grep -v '_test\.go:' \
    | grep -v '^internal/pipeline/' \
    | grep -v '^internal/metrics/' \
    | grep -v '^internal/faults/' \
    | grep -v '^internal/serve/' \
    || true)

if [ -n "$bad" ]; then
    echo "check_pipeline: direct span/fault-site use outside internal/pipeline:" >&2
    echo "$bad" >&2
    echo "declare the work as a pipeline.Phase (or pipeline.Step) instead" >&2
    exit 1
fi
# Second boundary: event counters belong to the instance that counts them
# (Supervisor, Brownout, Dispatcher, Planner, Server, Gateway, Simulation).
# internal/metrics holds only wire structs and the instance-scoped Set
# holder: it may declare no package-level variable at all, and the
# process-global accessor families deleted in PR 12 may not come back under
# their old names anywhere (tests included; bench/ is its own module).
globals=$(grep -n '^var' internal/metrics/*.go | grep -v '_test\.go:' || true)
mirror=$(grep -rnE --include='*.go' \
        -e 'metrics\.(Add|Read|Reset)[A-Z]' \
        -e '\.Capture(Recovery|Overload|Planner)\(' \
        cmd internal examples ./*.go \
    || true)
if [ -n "$globals$mirror" ]; then
    echo "check_pipeline: process-global counter state is back:" >&2
    echo "$globals$mirror" >&2
    echo "count the event on the instance that produces it (metrics.Set for counters with no other home)" >&2
    exit 1
fi
# Third boundary: measured solve cost has one owner, plan.Planner. The
# serving layer asks it (Estimate) and tells it (Observe); it may not keep a
# cost table of its own — no map keyed by plan.CostShape, under that name or
# an alias declared for it — nor a second cost model to seed one from.
ledger=$(grep -rnE --include='*.go' \
        -e 'map\[(plan\.)?CostShape\]' \
        -e 'type +[A-Za-z_0-9]+ +=? *plan\.CostShape' \
        -e 'DefaultCostModel' \
        internal/serve \
    | grep -v '_test\.go:' \
    || true)
if [ -n "$ledger" ]; then
    echo "check_pipeline: internal/serve keeps its own measured-cost state:" >&2
    echo "$ledger" >&2
    echo "read and feed plan.Planner (Estimate / Observe / Calibration) instead" >&2
    exit 1
fi
# Fourth boundary: each solver has one near-field path. Non-test
# internal/core calls the near-field kernels from exactly one place each —
# the symmetric pair kernels of Solver.nearPair — and so does non-test
# internal/dpfmm — the symmetric pair kernels of its one traveling walk
# (interact) — and neither calls any other kernel of package kernels, so a
# second sweep (one-sided, serial-only, per-box, within-box) cannot come
# back beside the row rounds or the Figure 10 walk unnoticed. The leaf
# layer's three kernels are the one exception: core's kernel.go (LeafOuter
# and EvalLocal, which dpfmm calls too) calls each of them once, and no
# other file does.
pairs='kernels.PairwiseFusedSoA
kernels.PairwisePotentialSoA'
leaf='kernels.AccumulatePotentialSoA
kernels.InnerFusedSoA
kernels.InnerPotentialSoA'
for pkg in internal/core internal/dpfmm; do
    calls=$(grep -n 'kernels\.[A-Za-z]' "$pkg"/*.go | grep -v '_test\.go:' \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
    want=$pairs
    if [ "$pkg" = internal/core ]; then
        want=$(printf '%s\n%s\n' "$pairs" "$leaf" | sort)
    fi
    stray=$(echo "$calls" | grep -E 'kernels\.(AccumulatePotentialSoA|Inner)' \
        | grep -v '^internal/core/kernel\.go:' || true)
    if [ "$(echo "$calls" | grep -o 'kernels\.[A-Za-z]*' | sort)" != "$want" ] || [ -n "$stray" ]; then
        echo "check_pipeline: $pkg must call kernels.PairwisePotentialSoA and" >&2
        echo "kernels.PairwiseFusedSoA once each and no other near-field kernel" >&2
        echo "(and core's kernel.go the three leaf kernels once each); found:" >&2
        echo "$calls" >&2
        exit 1
    fi
done
# Fifth boundary: the particle arrays cross the wire without reflection or
# re-layout. The non-test server code (internal/serve/*.go; the load
# generator below it is a client) decodes a request body with encoding/json in
# exactly one place — the fallback that defines the accepted language — turns
# [][3]float64 into Vec3 in exactly one place, that fallback's resolve, and
# never the other way round; and the request path keeps no pool.
decodes=$(grep -nE 'json\.(NewDecoder|Unmarshal)' internal/serve/*.go | grep -v '_test\.go:' || true)
relayouts=$(grep -nE '\[3\]float64\{|make\(\[\]\[3\]float64|[XYZ]: *[a-z]+\[[012]\]' internal/serve/*.go \
    | grep -v '_test\.go:' || true)
pools=$(grep -n 'sync\.Pool' internal/serve/*.go | grep -v '_test\.go:' || true)
if [ "$(echo "$decodes" | grep -c .)" != 1 ] || [ "$(echo "$relayouts" | grep -c .)" != 1 ] || [ -n "$pools" ]; then
    echo "check_pipeline: internal/serve must have one encoding/json request decode (the" >&2
    echo "fallback), one [][3]float64 -> Vec3 conversion (its resolve) and no sync.Pool; found:" >&2
    echo "$decodes" >&2
    echo "$relayouts" >&2
    echo "$pools" >&2
    echo "parse into and encode from the solver's arrays (wire.go) instead" >&2
    exit 1
fi
# Sixth boundary: one solve contract. Each solver package's Solver exports
# one solve method, Solve (into caller slices, nil ctx for no cancellation),
# and no Potentials…/Accelerations… variants beside it (core's PotentialsAt,
# which evaluates at other points, excepted). In the root package the
# Resilient ladder drives every rung through that one contract, intoSolver:
# resilient.go asserts a rung to nothing else.
for pkg in internal/core internal/dpfmm internal/core2; do
    solves=$(grep -hoE '^func \([a-z]+ \*Solver\) (Solve|Potentials|Accelerations)[A-Za-z]*\(' \
            $(ls "$pkg"/*.go | grep -v '_test\.go$') \
        | sed -E 's/.*\) ([A-Za-z]+)\(/\1/' | grep -vx PotentialsAt || true)
    if [ "$solves" != Solve ]; then
        echo "check_pipeline: $pkg's Solver must export exactly one solve method, Solve; found:" >&2
        echo "$solves" >&2
        exit 1
    fi
done
asserts=$(grep -noE '\.\([^)]*\)' resilient.go | grep -v ':\.(intoSolver)$' || true)
if [ -n "$asserts" ]; then
    echo "check_pipeline: resilient.go asserts a rung to something besides intoSolver:" >&2
    echo "$asserts" >&2
    echo "give the solver a solveInto method instead of a capability interface" >&2
    exit 1
fi
# Seventh boundary: one leaf layer. The particle -> outer sphere and inner
# sphere -> particle operations of both 3-D solvers are core.LeafOuter and
# core.EvalLocal, run once per box. Outside kernel.go (those kernels) and
# matrices.go (the translation matrices), no non-test file of internal/core
# or internal/dpfmm walks a rule's integration points, so a second
# hand-written leaf loop cannot come back beside them.
walks=$(grep -nE 'range +[A-Za-z_.(]*\.Points\b' internal/core/*.go internal/dpfmm/*.go \
    | grep -v '_test\.go:' \
    | grep -vE '^internal/core/(kernel|matrices)\.go:' || true)
if [ -n "$walks" ]; then
    echo "check_pipeline: a leaf loop over a rule's points outside core's kernel.go/matrices.go:" >&2
    echo "$walks" >&2
    echo "call core.LeafOuter / core.EvalLocal on the box's particle planes instead" >&2
    exit 1
fi
echo "check_pipeline: OK"
