package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// WorkerStat is the utilization of one scheduler participant (slot 0 is
// the submitting goroutine, slots 1+ are pool workers).
type WorkerStat struct {
	Slot int           `json:"slot"`
	Busy time.Duration `json:"busy_ns"`
	Jobs int64         `json:"jobs"`
}

// Snapshot is a materialized copy of a Rec: the per-phase accounting of
// one or more solves, in the shape the paper's Tables 4-6 report (time and
// sustained Mflops/s per phase). The flop counts are analytic (BLAS shapes
// and pair counts); the times are measured.
type Snapshot struct {
	Flops [NumPhases]int64
	Time  [NumPhases]time.Duration
	Calls [NumPhases]int64
	Bytes [NumPhases]int64

	Particles int
	Depth     int
	K         int

	// Backend is the compute backend (internal/simd) that was active when
	// the snapshot was read — "scalar", "avx2", ... — recorded so that
	// benchmark artifacts are only ever compared like against like.
	Backend string

	// T2Count is the number of interactive-field translations actually
	// applied (after boundary clipping and supernode reduction); the
	// headline count the supernode optimization reduces.
	T2Count int64
	// NearPairs is the number of particle pairs the near field evaluated.
	// The shared-memory solver evaluates an unordered pair once and deposits
	// it on both particles, so there this is half the interactions delivered.
	NearPairs int64

	// Workers, when captured, holds per-worker scheduler utilization.
	Workers []WorkerStat

	// HeapAllocs/HeapBytes are the heap-allocation delta across the solve
	// loop, when captured with an AllocDelta probe (the solvers never read
	// MemStats themselves — it stops the world).
	HeapAllocs int64
	HeapBytes  int64

	// Planner, when the caller owns a planner (cmd/phases with -autotune
	// or -plan-store), holds that planner's counters: tune hits/misses,
	// measured searches, plan provenance, store traffic.
	Planner *PlannerStats
}

// Diff returns the per-phase delta s minus prev: the accounting of exactly
// the solves that happened between the two snapshots. Callers that hold a
// solver exclusively (e.g. a server request that checked a plan out of a
// cache) use it to scope the solver's cumulative recorder to one request.
// The shape fields (Particles, Depth, K, Backend) are taken from s;
// worker, heap, and planner captures do not subtract meaningfully and are
// cleared.
func (s *Snapshot) Diff(prev *Snapshot) Snapshot {
	d := *s
	for p := Phase(0); p < NumPhases; p++ {
		d.Flops[p] -= prev.Flops[p]
		d.Time[p] -= prev.Time[p]
		d.Calls[p] -= prev.Calls[p]
		d.Bytes[p] -= prev.Bytes[p]
	}
	d.T2Count -= prev.T2Count
	d.NearPairs -= prev.NearPairs
	d.Workers = nil
	d.HeapAllocs, d.HeapBytes = 0, 0
	d.Planner = nil
	return d
}

// TotalFlops sums the flops of every per-solve phase. Setup is excluded:
// translation-matrix construction is amortized across time steps, as in
// the paper's performance accounting.
func (s *Snapshot) TotalFlops() int64 {
	var t int64
	for p := PhaseSort; p < NumPhases; p++ {
		t += s.Flops[p]
	}
	return t
}

// TotalTime sums the measured time of every per-solve phase (Setup
// excluded, the sort included).
func (s *Snapshot) TotalTime() time.Duration {
	var t time.Duration
	for p := PhaseSort; p < NumPhases; p++ {
		t += s.Time[p]
	}
	return t
}

// TraversalFlops returns the flops of the hierarchy traversal only (the
// T1/T2/T3 translations), the quantity the optimal-depth analysis balances
// against the near field.
func (s *Snapshot) TraversalFlops() int64 {
	return s.Flops[PhaseT1] + s.Flops[PhaseT2] + s.Flops[PhaseT3]
}

// TraversalTime returns the measured time of the hierarchy traversal: the
// translations plus their supporting data motion (embed/extract, ghost
// exchange) on solvers that have those phases.
func (s *Snapshot) TraversalTime() time.Duration {
	return s.Time[PhaseT1] + s.Time[PhaseT2] + s.Time[PhaseT3] +
		s.Time[PhaseEmbed] + s.Time[PhaseExtract] + s.Time[PhaseGhost]
}

// Mflops returns the sustained Mflops/s of phase p (0 when untimed).
func (s *Snapshot) Mflops(p Phase) float64 {
	sec := s.Time[p].Seconds()
	if !(sec > 0) {
		return 0
	}
	return float64(s.Flops[p]) / sec / 1e6
}

// active reports whether phase p recorded anything worth a table row.
func (s *Snapshot) active(p Phase) bool {
	return s.Time[p] != 0 || s.Flops[p] != 0 || s.Calls[p] != 0 || s.Bytes[p] != 0
}

// String formats a compact per-phase report (the historical core.Stats
// format, with inactive phases skipped).
// backendSuffix renders the backend tag for the report headers; snapshots
// predating the dispatch layer (zero value) stay tagless.
func backendSuffix(backend string) string {
	if backend == "" {
		return ""
	}
	return " backend=" + backend
}

func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d depth=%d K=%d%s\n", s.Particles, s.Depth, s.K, backendSuffix(s.Backend))
	for p := Phase(0); p < NumPhases; p++ {
		if p != PhaseSetup && !s.active(p) {
			continue
		}
		fmt.Fprintf(&b, "  %-11s %12d flops  %v\n", p.String(), s.Flops[p], s.Time[p].Round(time.Microsecond))
	}
	return b.String()
}

// Table formats the paper-style per-phase breakdown: wall time, sustained
// Mflops/s, and share of the total per-solve time for every active phase,
// followed by a total row (Tables 4-6 layout).
func (s *Snapshot) Table() string {
	total := s.TotalTime()
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d depth=%d K=%d%s\n", s.Particles, s.Depth, s.K, backendSuffix(s.Backend))
	fmt.Fprintf(&b, "  %-11s %14s %10s %7s\n", "phase", "time", "Mflops/s", "%solve")
	for p := PhaseSort; p < NumPhases; p++ {
		if !s.active(p) {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.Time[p]) / float64(total)
		}
		fmt.Fprintf(&b, "  %-11s %14v %10.1f %6.1f%%\n",
			p.String(), s.Time[p].Round(time.Microsecond), s.Mflops(p), pct)
	}
	totalMf := 0.0
	if sec := total.Seconds(); sec > 0 {
		totalMf = float64(s.TotalFlops()) / sec / 1e6
	}
	fmt.Fprintf(&b, "  %-11s %14v %10.1f %6.1f%%\n", "total", total.Round(time.Microsecond), totalMf, 100.0)
	if s.Time[PhaseSetup] != 0 {
		fmt.Fprintf(&b, "  (setup, amortized: %v)\n", s.Time[PhaseSetup].Round(time.Microsecond))
	}
	if s.Planner != nil && !s.Planner.Zero() {
		p := s.Planner
		fmt.Fprintf(&b, "  planner: %d tune hits, %d misses, %d searches (%v), plans %d pinned / %d analytic / %d tuned\n",
			p.TuneHits, p.TuneMisses, p.Searches, time.Duration(p.SearchNS).Round(time.Microsecond),
			p.PlansPinned, p.PlansAnalytic, p.PlansTuned)
	}
	return b.String()
}

// phaseJSON is one row of the machine-readable form.
type phaseJSON struct {
	Phase  string  `json:"phase"`
	NS     int64   `json:"ns"`
	Flops  int64   `json:"flops"`
	Calls  int64   `json:"calls"`
	Bytes  int64   `json:"bytes,omitempty"`
	Mflops float64 `json:"mflops"`
}

// MarshalJSON emits the snapshot with phases as named rows (inactive
// phases skipped), plus the totals and the shape, so a reader of
// Solver.Stats() as JSON does not depend on Phase ordinals.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	phases := make([]phaseJSON, 0, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		if !s.active(p) {
			continue
		}
		phases = append(phases, phaseJSON{
			Phase:  p.String(),
			NS:     int64(s.Time[p]),
			Flops:  s.Flops[p],
			Calls:  s.Calls[p],
			Bytes:  s.Bytes[p],
			Mflops: s.Mflops(p),
		})
	}
	return json.Marshal(struct {
		Particles  int           `json:"particles"`
		Depth      int           `json:"depth"`
		K          int           `json:"k"`
		Backend    string        `json:"backend,omitempty"`
		TotalNS    int64         `json:"total_ns"`
		TotalFlops int64         `json:"total_flops"`
		T2Count    int64         `json:"t2_count"`
		NearPairs  int64         `json:"near_pairs"`
		HeapAllocs int64         `json:"heap_allocs,omitempty"`
		HeapBytes  int64         `json:"heap_bytes,omitempty"`
		Phases     []phaseJSON   `json:"phases"`
		Workers    []WorkerStat  `json:"workers,omitempty"`
		Planner    *PlannerStats `json:"planner,omitempty"`
	}{
		Particles:  s.Particles,
		Depth:      s.Depth,
		K:          s.K,
		Backend:    s.Backend,
		TotalNS:    int64(s.TotalTime()),
		TotalFlops: s.TotalFlops(),
		T2Count:    s.T2Count,
		NearPairs:  s.NearPairs,
		HeapAllocs: s.HeapAllocs,
		HeapBytes:  s.HeapBytes,
		Phases:     phases,
		Workers:    s.Workers,
		Planner:    s.Planner,
	})
}
