#!/bin/sh
# Regenerates the hot-path performance record: end-to-end solver benchmarks
# with allocation counts, the GEMM kernel sweep at the solver's translation
# shapes (per compute backend), and the per-phase breakdown of the depth-4
# K=12 solve (cmd/phases -json). Run from the repository root:
#
#   scripts/bench.sh [output.json]          # default BENCH_local.json (untracked)
#   NBODY_BACKEND=scalar scripts/bench.sh BENCH_scalar.json   # pin a backend
#
# Results depend on the host; the committed BENCH_PR*.json files record the
# reference runs documented in EXPERIMENTS.md. The record carries the
# compute backend (internal/simd) the solve benchmarks ran on.
#
# After writing the record, the script gates on the most recent previous
# BENCH_PR*.json *of the same backend*: the headline solve (SolveK12Depth4)
# must be within 10% of the previous ns/op and must not allocate more per
# op, or the script exits nonzero (failing CI). When no same-backend
# baseline exists (first record after a backend change), the gate only
# warns: comparing scalar wall time against avx2 wall time would gate on
# the hardware, not the code.
set -eu

out="${1:-BENCH_local.json}"
solve_txt="$(mktemp)"
gemm_txt="$(mktemp)"
phases_json="$(mktemp)"
trap 'rm -f "$solve_txt" "$gemm_txt" "$phases_json"' EXIT

# The solve benchmarks — two potential solves and the clustered force solve
# — run twice. GOMAXPROCS=1 is the gated series: every earlier record was
# taken on one core, where go test prints no -N suffix and the solve runs
# inline on prebuilt state (2 allocs/op). The second run, at the host's own
# GOMAXPROCS, records the pool paths under the suffixed names.
solves='Benchmark(Solve(K12Depth4|SupernodesK32Depth4)|AccelPlummerDepth3)$'
GOMAXPROCS=1 go test ./internal/core/ -run '^$' -bench "$solves" \
    -benchmem -benchtime 5x | tee "$solve_txt"
if [ "$(getconf _NPROCESSORS_ONLN)" -gt 1 ]; then
    go test ./internal/core/ -run '^$' -bench "$solves" \
        -benchmem -benchtime 5x | tee -a "$solve_txt"
fi
go test ./internal/blas/ -run '^$' -bench 'BenchmarkDgemm' \
    -benchmem -benchtime 2s | tee "$gemm_txt"
go run ./cmd/phases -n 32768 -depth 4 -degree 5 -json > "$phases_json"

# The phases snapshot records which backend actually ran (metrics.Snapshot);
# lift it to the top of the record so the gate does not parse the nested
# object. Records written before the dispatch layer have no backend key and
# are treated as scalar — that is what they measured.
backend="$(sed -n 's/^ *"backend": "\([a-z0-9]*\)".*/\1/p' "$phases_json" | head -n 1)"
backend="${backend:-scalar}"

awk -v out="$out" -v phases_file="$phases_json" -v backend="$backend" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    obj = sprintf("    {\"name\": \"%s\", \"iterations\": %s", $1, $2)
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^0-9A-Za-z_]/, "_", unit)
        obj = obj sprintf(", \"%s\": %s", unit, $i)
    }
    obj = obj "}"
    benches = benches (benches == "" ? "" : ",\n") obj
}
END {
    phases = ""
    while ((getline line < phases_file) > 0)
        phases = phases (phases == "" ? "" : "\n  ") line
    close(phases_file)
    printf "{\n  \"cpu\": \"%s\",\n  \"backend\": \"%s\",\n  \"benchmarks\": [\n%s\n  ],\n  \"phases\": %s\n}\n", \
        cpu, backend, benches, phases > out
}
' "$solve_txt" "$gemm_txt"

echo "wrote $out (backend=$backend)"

# Regression gate. Baseline selection: the most recent previous record
# (version-sorted, excluding the record just written) measured on the SAME
# backend. The newest previous record of any backend is kept for the
# warn-only report when the backend changed.
record_backend() {
    b="$(sed -n 's/^ *"backend": "\([a-z0-9]*\)".*/\1/p' "$1" | head -n 1)"
    echo "${b:-scalar}"
}

prev_same=""
prev_any=""
for f in $(ls BENCH_PR*.json 2>/dev/null | sort -V); do
    [ "$f" = "$out" ] && continue
    # Skip records that do not carry the headline solve benchmark (e.g. the
    # PR8 loadtest artifact records tenant latency buckets, not ns/op).
    grep -q '"name": "BenchmarkSolveK12Depth4"' "$f" || continue
    prev_any="$f"
    [ "$(record_backend "$f")" = "$backend" ] && prev_same="$f"
done

if [ -z "$prev_same" ] && [ -z "$prev_any" ]; then
    echo "bench gate: no previous BENCH_PR*.json, skipping"
    exit 0
fi

gate_mode="fail"
prev="$prev_same"
if [ -z "$prev_same" ]; then
    gate_mode="warn"
    prev="$prev_any"
    echo "bench gate: no previous $backend record; comparing against" \
        "$prev ($(record_backend "$prev")) as warn-only"
fi

awk -v prev="$prev" -v cur="$out" -v mode="$gate_mode" '
function field(line, key,   re) {
    re = "\"" key "\": [0-9]+"
    if (match(line, re))
        return substr(line, RSTART + length(key) + 4, RLENGTH - length(key) - 4)
    return ""
}
function scan(file, res,   line) {
    while ((getline line < file) > 0) {
        if (line ~ /"name": "BenchmarkSolveK12Depth4"/) {
            res["ns"] = field(line, "ns_op")
            res["allocs"] = field(line, "allocs_op")
        }
    }
    close(file)
}
BEGIN {
    scan(prev, p); scan(cur, c)
    if (p["ns"] == "" || c["ns"] == "") {
        printf "bench gate: SolveK12Depth4 missing from %s or %s\n", prev, cur
        exit 1
    }
    ratio = c["ns"] / p["ns"]
    printf "bench gate vs %s: SolveK12Depth4 %d -> %d ns/op (%+.1f%%), %d -> %d allocs/op\n", \
        prev, p["ns"], c["ns"], 100 * (ratio - 1), p["allocs"], c["allocs"]
    fail = 0
    if (ratio > 1.10) { print "bench gate: ns/op regressed more than 10%"; fail = 1 }
    if (c["allocs"] + 0 > p["allocs"] + 0) { print "bench gate: allocs/op regressed"; fail = 1 }
    if (!fail) { print "bench gate: OK"; exit 0 }
    if (mode == "warn") { print "bench gate: WARN (cross-backend comparison, not failing)"; exit 0 }
    print "bench gate: FAIL"
    exit 1
}'
