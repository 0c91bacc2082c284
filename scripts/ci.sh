#!/usr/bin/env bash
# Every check that gates a change, one function per CI step; the workflow
# runs each as `scripts/ci.sh <step>` (ci_test.go holds it to that), and
# `GOFLAGS=-count=1 NBODY_BACKEND=avx2 scripts/ci.sh all` runs them all in
# order. Functions named `_…` are helpers. Pass -count=1: the test cache does
# not see NBODY_BACKEND, so a cached run may replay another backend's result.
set -euo pipefail

cd "$(dirname "$0")/.."

# _count_pass WANT PATTERN GO-TEST-ARGS... fails unless `go test -v` passes
# and exactly WANT output lines match PATTERN: proof that subtests ran.
_count_pass() {
    local want=$1 pattern=$2 out n
    shift 2
    out=$(go test "$@" -v) || { echo "$out"; return 1; }
    echo "$out"
    n=$(grep -c -- "$pattern" <<<"$out" || true)
    if [ "$n" != "$want" ]; then
        echo "ci: want $want lines matching '$pattern', got $n" >&2
        return 1
    fi
}

# _backend_active NAME fails unless a solve reports that NAME ran: a typo'd
# or unsupported NBODY_BACKEND falls back to auto with a warning.
_backend_active() {
    local out
    out=$(NBODY_BACKEND=$1 go run ./cmd/phases -n 1024 -depth 2)
    echo "$out"
    if ! grep -q "backend=$1" <<<"$out"; then
        echo "ci: backend $1 is not the active backend" >&2
        return 1
    fi
}

# _has WORD TEXT fails unless TEXT contains WORD.
_has() { grep -q -- "$1" <<<"$2" || { echo "ci: output lacks '$1'" >&2; return 1; }; }

# _tree_unchanged CMD... fails if CMD changed `git status --porcelain`:
# compared before and after, so local edits in progress pass.
_tree_unchanged() {
    local before
    before=$(git status --porcelain)
    "$@"
    if [ "$(git status --porcelain)" != "$before" ]; then
        echo "ci: $1 changed the checkout:" >&2
        git status --porcelain >&2
        return 1
    fi
}

format() {
    local out
    out=$(gofmt -l .)
    if [ -n "$out" ]; then
        echo "ci: not gofmt'd:" >&2
        echo "$out" >&2
        return 1
    fi
}

vet() { go vet ./...; }

# Spans and fault sites are owned by the phase runner; solvers must not open
# them directly. Event counters are owned by the instance that counts them;
# internal/metrics must not regain package-level counter state. Measured
# solve cost is owned by plan.Planner; internal/serve must not regain a cost
# table or a cost model of its own. internal/core and internal/dpfmm each
# have one near-field path: one call site each of the two symmetric pair
# kernels and no other near-field kernel call; the three leaf kernels are
# called once each, from core's kernel.go only. internal/serve has one
# encoding/json request decode (the fallback that defines the accepted
# language), one [][3]float64 -> Vec3 conversion (that fallback's) and no
# pool on the request path; it calls strconv.ParseFloat from one place, the
# request scanner's fallback for the literals its exact paths decline. Each
# solver package's Solver exports one Solve. Both 3-D solvers have one leaf
# layer: outside core's kernel.go and matrices.go no non-test file of
# internal/core or internal/dpfmm ranges over a rule's points, so the leaf
# phases stay on core.LeafOuter and core.EvalLocal.
pipeline() { scripts/check_pipeline.sh; }

build() { go build ./...; }

tests() { go test ./...; }

# bench/ is its own module compiled against internal/{serve,gw,plan,blas,...};
# the root ./... patterns do not see it, so an internal refactor could break
# the benchmark without failing anything above.
bench_module() { (cd bench && go vet ./... && go test ./...); }

# The second line repeats the owner-computes sweeps' tests on a four-worker
# pool whatever the host has. For the translations (T1, T3, plain and
# supernode T2): the job partition, a cancellation landing mid-sweep,
# repeat-solve bitwise identity, the per-box ablation equal to the aggregated
# solve bit for bit, and a supernode solve giving the same bits at one, two
# and four workers — the places a job writing a box it does not own would
# show. For the near field: the round list visits every near pair once and no
# two jobs of a round (tiles included) write a common particle — where the
# detector would see a job depositing into a row it does not hold — a force
# solve and a potential solve must each give the same bits with one, two and
# four workers (these tests start their own children), and a cancellation
# inside any round must leave no trace. The third line is the pair kernels'
# half of that: two runs, equal bits, both sides. Both lines carry the shared
# translation set's proof (eight goroutines construct and solve on one set,
# and solves leave its bits alone: a write to it shows here). The fourth line
# holds dpfmm's pinned output bits with its VUs running the shared leaf
# kernels concurrently on four workers. The fifth runs the scheduler's own
# tests ten times on a four-worker pool, where workers polling under a
# solve's hold outnumber the host's CPUs.
race() {
    go test -race -short ./...
    GOMAXPROCS=4 go test -race -count=3 ./internal/core/ -run 'TestT2SweepPartition|TestT2CancelMidSweepThenReuse|TestRepeatedSolvesBitwiseIdentical|TestSolverAggregationMatchesGemv|TestSupernodeSolveIndependentOfWorkerCount|TestForceSolveIndependentOfWorkerCount|TestPotentialSolveIndependentOfWorkerCount|TestNearCancelMidSweepThenReuse|TestNearRunSweepCoversNearFieldOnce|TestNearRoundsPartitionRowPairs|TestNearSplitTilesDisjoint|TestSharedSetConcurrentConstructAndSolve|TestSharedSetSolveBitwiseAndImmutable'
    go test -race -count=3 ./internal/kernels/ -run 'TestNearFieldDeterministicPerBackend|TestPairwise(Potential|Fused)OrderExact'
    GOMAXPROCS=4 go test -race -count=3 ./internal/dpfmm/ -run 'TestSolveBitsPinned'
    GOMAXPROCS=4 go test -race -count=10 ./internal/sched/
}

# Runs every fuzz target against its checked-in seed corpus only: plain
# `go test` already executes seeds; this step makes fuzz-target compilation
# failures and seed regressions a dedicated, visible failure. The packages
# are the ones whose tests declare a Fuzz target, so a target added in a new
# package is run without editing this list.
fuzz_seeds() {
    local pkgs
    pkgs=$(grep -rl --include='*_test.go' --exclude-dir=bench '^func Fuzz' . | xargs -n1 dirname | sort -u)
    # shellcheck disable=SC2086 # one package per word
    go test $pkgs -run '^Fuzz' -v
}

# The scanner and the append encoder are optimisations with a reference:
# twenty seconds of new inputs on which decodeRequest must agree with the
# encoding/json decode (verdict, error, status, every bit), ten on which
# appendFloat(s) must write json.Marshal's bytes, and ten on which the
# scanner's own number conversion (Clinger, Eisel-Lemire, strconv fallback)
# must match the JSON grammar plus strconv.ParseFloat in verdict, end offset
# and bits: whole bodies rarely reach the conversion's edges (halfway points,
# subnormals, 19-digit cuts), bare literals do. The short minimize time keeps
# the engine from spending the whole budget shrinking one kilobyte-long
# interesting input.
fuzz_smoke() {
    go test ./internal/serve/ -run '^$' -fuzz FuzzDecodeDifferential -fuzztime 20s -fuzzminimizetime 2s
    go test ./internal/serve/ -run '^$' -fuzz FuzzEncodeFloats -fuzztime 10s -fuzzminimizetime 2s
    go test ./internal/serve/ -run '^$' -fuzz FuzzParseNumber -fuzztime 10s -fuzzminimizetime 2s
}

# The robustness matrix: a panic/NaN injected at every phase boundary of all
# three pipelines must surface as a typed error with no crash, and the same
# solver must then re-solve correctly. The scheduler's recycled region
# descriptors ride along: the stress keeps the wake-up queue saturated so
# stale wake-ups are common. Its panic, drain, cancellation and stress cases
# run both with workers woken per region and inside a hold, where workers
# poll between regions; the hold's own tests check that polling stops at the
# last release and after the bound.
fault_injection() { go test . ./internal/faults/ ./internal/sched/ -race -run 'TestFaultInjection|TestNaNInjection|TestCancellation|Test(Panic|Drain|RunCtx|RunEach|RecycleStress|WorkersStopPolling|HoldWithoutRegions)' -count=1 -v; }

# The self-healing layer: every fault site of all three pipelines healed to
# completion through the retry supervisor, degradation ladder + breaker
# behavior, checkpoint/resume round trips (bitwise trajectory + corruption
# table, the frame codec's own corruption table and atomic write beneath
# it), and the instance-scoped recovery counters' race freedom — all under
# the race detector.
recovery() { go test . ./internal/resilience/ ./internal/metrics/ ./internal/frame/ -race -run 'TestResilient|TestSupervisor|TestCheckpoint|TestResume|TestPeriodic|TestRecovery|TestHappyPath|TestBreaker|TestCancelDuringBackoff|TestCorruptTable|TestWriteFileAtomic' -count=1 -v; }

# The serving layer under churn: concurrent tenants appearing and vanishing,
# client cancellation mid-solve, a tight-deadline mix, and one injected
# solver panic healed by the ladder — with a goroutine-leak check after
# drain, all under the race detector.
server_soak() { go test ./internal/serve/ -race -run 'TestSoakChurnCancelFault|TestPlanCacheExclusivity|TestOverloadRejects' -count=1 -v; }

# The chaos harness: slow-loris and mid-stream-disconnect clients plus an
# unlimited delay armed at every serving-layer fault site, against open-loop
# arrivals — the well-behaved tenant must draw zero 5xx and the goroutine
# count must return to baseline after drain. Under the race detector,
# together with the brownout controller's unit tests.
chaos_soak() { go test ./internal/serve/loadgen/ ./internal/resilience/ -race -run 'TestChaosSoak|TestBrownout' -count=1 -v; }

# The replicated serving tier in-process: health-checked failover, retry
# budgets, idempotent replay, hedging, and the kill-loop chaos test (replicas
# SIGKILLed round-robin under solve and stream load, gating zero well-behaved
# 5xx and zero lost streams) — all under the race detector.
gateway() { go test ./internal/gw/ -race -count=1 -v; }

# scripts/fleettest.sh boots nbodygw in front of three real nbodyd processes
# and enforces two gates: a rolling SIGTERM restart must be invisible to
# solve traffic through the gateway (the loadtest's zero-5xx gate), and an
# in-flight simulate stream must survive a round-robin SIGKILL loop with its
# final frame bitwise-identical to an uninterrupted single-replica run. The
# script writes nothing into the checkout (BENCH_PR10.json is history, not a
# gate).
fleet() { _tree_unchanged scripts/fleettest.sh; }

# Boots nbodyd's in-process loadtest mode: real HTTP, both admission
# policies, a contended tenant mix. The command exits nonzero if any request
# drew a 5xx or a transport error, so "the server survived a load burst on
# this backend" is a gate, not a hope. Like the fleet test it writes nothing
# into the checkout (BENCH_PR8.json is history).
serve_smoke() { DURATION=3s _tree_unchanged scripts/loadtest.sh; }

# The backend NBODY_BACKEND names is the one that runs: the matrix must never
# silently test one backend twice.
backend_sanity() { _backend_active "${NBODY_BACKEND:?ci: backend_sanity needs NBODY_BACKEND}"; }

# The one-sided potential and the two inner-series kernels must give their
# scalar bodies' bits under avx2 (internal/kernels/inner_test.go); the step
# proves their avx2 subtests ran rather than skipped. It runs where
# NBODY_BACKEND is avx2, the workflow's condition too.
leaf_pins_avx2() {
    if [ "${NBODY_BACKEND:-}" != avx2 ]; then
        echo "leaf_pins_avx2: NBODY_BACKEND is not avx2, skipped"
        return 0
    fi
    _count_pass 3 '--- PASS: Test[A-Za-z]*OrderExact/avx2' ./internal/kernels -run 'Test(AccumulatePotential|InnerPotential|InnerFused)OrderExact'
}

# The avx512 backend rebinds the two near-field pair kernels, the two
# inner-series leaf kernels and the blas K = 12 slab kernel that T1, T2 and
# T3 run on (DESIGN.md §11) — the 2-D solver's translations included, through
# DgemvT — so the packages whose translations, near fields, leaf layers and
# pins run on them are tested under it, and the sanity check proves it was
# active. The slab kernel's order pin and the three leaf kernels' must have
# run their avx512 subtests, not skipped them: the step counts the subtests'
# PASS lines. Runs where NBODY_BACKEND is avx2, the workflow's condition too.
# Hosts may lack AVX-512; the log line says which it was, so a green run
# never hides a skipped leg.
avx512() {
    if [ "${NBODY_BACKEND:-}" != avx2 ]; then
        echo "avx512: NBODY_BACKEND is not avx2, skipped"
        return 0
    fi
    local f
    for f in avx512f avx512dq avx512vl bmi2; do
        if ! grep -qw "$f" /proc/cpuinfo; then
            echo "avx512: host lacks $f, skipped"
            return 0
        fi
    done
    NBODY_BACKEND=avx512 go test ./internal/kernels ./internal/blas ./internal/core ./internal/core2 ./internal/dpfmm ./internal/testutil .
    NBODY_BACKEND=avx512 _count_pass 1 '--- PASS: TestDgemmRowsTOrderExact/avx512' ./internal/blas -run TestDgemmRowsTOrderExact
    NBODY_BACKEND=avx512 _count_pass 3 '--- PASS: Test[A-Za-z]*OrderExact/avx512' ./internal/kernels -run 'Test(AccumulatePotential|InnerPotential|InnerFused)OrderExact'
    _backend_active avx512
    echo "avx512: ran"
}

# _allocs_at_most PROCS BENCH BUDGET runs core's Benchmark<BENCH> at
# GOMAXPROCS=PROCS and fails if it allocates more than BUDGET per op.
_allocs_at_most() {
    local out allocs
    out=$(GOMAXPROCS=$1 go test ./internal/core/ -run '^$' -bench "Benchmark$2\$" -benchmem -benchtime 3x)
    echo "$out"
    allocs=$(awk -v b="Benchmark$2" '$1 ~ "^" b {for (i=1;i<=NF;i++) if ($(i+1)=="allocs/op") print $i}' <<<"$out")
    if [ -z "$allocs" ] || [ "$allocs" -gt "$3" ]; then
        echo "ci: $2 at GOMAXPROCS=$1: allocs/op = ${allocs:-unparsed}, budget is $3" >&2
        return 1
    fi
}

# Two budgets, because the two paths allocate differently. With one executor
# every sweep runs inline on prebuilt state: 2 allocs/op for the potential
# solve and for the clustered force solve alike, and any closure or scheduler
# round trip added to the serial path shows here. With a pool a region costs
# nothing either — its body is prebuilt and its descriptor recycled
# (internal/sched) — until a GC empties the descriptor pool: 2 to 4
# allocs/op, gated at 6. One unrecycled job per region would read 35 (the
# near field alone issues 25 to 27 regions). The last line is the request
# path's own ceiling, on this backend: one warm N = 512 /v1/solve through the
# handler, allocations and bytes; the test skips under -race, so its PASS
# line is counted.
alloc_gate() {
    _allocs_at_most 1 SolveK12Depth4 2
    _allocs_at_most 2 SolveK12Depth4 6
    _allocs_at_most 1 SolveSupernodesK32Depth4 2
    _allocs_at_most 2 SolveSupernodesK32Depth4 6
    _allocs_at_most 1 AccelPlummerDepth3 2
    _allocs_at_most 2 AccelPlummerDepth3 6
    _count_pass 1 '--- PASS: TestSolveHandlerAllocs ' ./internal/serve/ -run 'TestSolveHandlerAllocs' -count=1
}

phases_smoke() { go run ./cmd/phases -n 8192 -depth 3; }

# Two leapfrog steps on the simulated machine: the data-parallel force solve
# (the same pipeline and Figure 10 walk as its potential solve) end to end
# through Simulation, printing the energy drift.
dp_smoke() { go run ./cmd/nbody -solver dp -n 2048 -depth 3 -steps 2; }

# The cold run must search (searches=1) and persist; the warm run must answer
# from the loaded store with no search at all — asserted on the planner
# counters the summary line prints, the same counters the serve layer exports
# via /v1/metrics.
autotune_smoke() {
    local dir cold warm
    dir=$(mktemp -d)
    cold=$(go run ./cmd/nbody -n 2048 -autotune -plan-store "$dir/plans.nbp")
    echo "$cold"
    _has 'provenance=tuned' "$cold"
    _has 'searches=1' "$cold"
    _has 'store_loaded=0' "$cold"
    warm=$(go run ./cmd/nbody -n 2048 -autotune -plan-store "$dir/plans.nbp")
    echo "$warm"
    _has 'provenance=tuned' "$warm"
    _has 'searches=0' "$warm"
    _has 'store_loaded=1' "$warm"
    rm -rf "$dir"
}

# Every step above, in order, with its wall time.
all() {
    local step t0
    for step in $steps; do
        [ "$step" = all ] && continue
        echo "ci: == $step"
        t0=$SECONDS
        "$step"
        echo "ci: == $step ok ($((SECONDS - t0)) s)"
    done
}

steps=$(sed -n 's/^\([a-z][a-z0-9_]*\)() {.*/\1/p' scripts/ci.sh)
if [ $# -ne 1 ] || ! grep -qx -- "$1" <<<"$steps"; then
    echo "usage: scripts/ci.sh <step>, one of:" $steps >&2
    exit 2
fi
"$1"
