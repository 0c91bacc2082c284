package metrics_test

// Invariant tests of the instrumentation layer, run against live solves:
// phase wall times must tile the measured solve time, analytic flop counts
// must agree with the BLAS call counters and with the closed-form phase
// shapes for the paper's two headline configurations (K=12 and K=72), and
// the counters must be safe under concurrent recording (this file is run
// with -race in CI).

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"nbody"
	"nbody/internal/blas"
	"nbody/internal/core"
	"nbody/internal/direct"
	"nbody/internal/dp"
	"nbody/internal/dpfmm"
	"nbody/internal/geom"
	"nbody/internal/metrics"
	"nbody/internal/testutil"
	"nbody/internal/tree"
)

// TestPhaseTimesTileSolve checks that the per-phase spans of the
// shared-memory solver account for (nearly) all of the measured wall time
// of a solve: the phases are sequential and non-overlapping, so their sum
// must not exceed the wall time, and gaps (unspanned work) must stay
// small.
func TestPhaseTimesTileSolve(t *testing.T) {
	pos, q := testutil.RandomSystem(8192, 7)
	s, err := core.NewSolver(testutil.UnitBox(), core.Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	st := s.Stats()
	total := st.TotalTime()
	if total <= 0 {
		t.Fatal("no phase time recorded")
	}
	if total > wall+wall/10 {
		t.Errorf("phase times sum to %v, more than the %v wall time", total, wall)
	}
	if total < wall/2 {
		t.Errorf("phase times sum to %v, under half the %v wall time: a phase is unspanned", total, wall)
	}
}

// dpSolve runs one data-parallel solve and returns its snapshot plus the
// BLAS counters it generated.
func dpSolve(t *testing.T, n, depth, degree int) (*metrics.Snapshot, blas.Counters, core.Config) {
	t.Helper()
	pos, q := testutil.RandomSystem(n, 8)
	m, err := dp.NewMachine(8, 4, dp.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Degree: degree, Depth: depth}
	s, err := dpfmm.NewSolver(m, testutil.UnitBox(), cfg, dpfmm.LinearizedAliased)
	if err != nil {
		t.Fatal(err)
	}
	blas.EnableCounters(true)
	defer blas.EnableCounters(false)
	blas.ResetCounters()
	if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
		t.Fatal(err)
	}
	ncfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return s.Stats(), blas.ReadCounters(), ncfg
}

// TestFlopsClosedForm checks the analytic flop accounting of the
// data-parallel solver against both the independently counted BLAS calls
// and the closed-form phase shapes, for the paper's K=12 (D=5) and K=72
// (D=11) configurations. Every translation in dpfmm is a k x k product — T2
// one box at a time (DgemvT), T1 and T3 one slab at a time (DgemmRowsT) — and
// nothing else in the solve multiplies matrices, so the traversal flops must
// equal the two BLAS flop counters exactly.
func TestFlopsClosedForm(t *testing.T) {
	for _, tc := range []struct {
		degree, wantK int
	}{
		{5, 12},
		{11, 72},
	} {
		const n, depth = 4096, 3
		st, c, cfg := dpSolve(t, n, depth, tc.degree)
		k := st.K
		if k != tc.wantK {
			t.Errorf("D=%d: K = %d, want %d", tc.degree, k, tc.wantK)
		}
		if st.Particles != n || st.Depth != depth {
			t.Errorf("D=%d: shape (%d, %d), want (%d, %d)", tc.degree, st.Particles, st.Depth, n, depth)
		}

		if got, counted := st.TraversalFlops(), c.GemvFlops+c.GemmFlops; got != counted {
			t.Errorf("D=%d: traversal flops %d != counted gemv + gemm flops %d", tc.degree, got, counted)
		}
		// T1 and T3 visit the same parent grids (levels 2..depth-1), eight
		// octants of one k x k product per parent box.
		var hier int64
		for l := 2; l < depth; l++ {
			boxes := int64(1) << (3 * l)
			hier += 8 * blas.DgemmFlops(k, k, 1) * boxes
		}
		if st.Flops[metrics.PhaseT1] != hier {
			t.Errorf("D=%d: T1 flops %d, want %d", tc.degree, st.Flops[metrics.PhaseT1], hier)
		}
		if st.Flops[metrics.PhaseT3] != hier {
			t.Errorf("D=%d: T3 flops %d, want %d", tc.degree, st.Flops[metrics.PhaseT3], hier)
		}
		// One k x k product per applied interactive translation.
		if want := st.T2Count * blas.DgemmFlops(k, k, 1); st.Flops[metrics.PhaseT2] != want {
			t.Errorf("D=%d: T2 flops %d, want %d (%d translations)",
				tc.degree, st.Flops[metrics.PhaseT2], want, st.T2Count)
		}
		// Leaf sampling and evaluation are per-particle closed forms.
		if want := int64(n) * int64(k) * direct.FlopsPerPair; st.Flops[metrics.PhaseLeafOuter] != want {
			t.Errorf("D=%d: leaf-outer flops %d, want %d", tc.degree, st.Flops[metrics.PhaseLeafOuter], want)
		}
		if want := int64(n) * int64(k) * int64(cfg.M+1) * 6; st.Flops[metrics.PhaseEvalLocal] != want {
			t.Errorf("D=%d: eval-local flops %d, want %d", tc.degree, st.Flops[metrics.PhaseEvalLocal], want)
		}
		// The data-parallel walk charges the one-deposit convention; the
		// shared-memory solver's is TestNearPairsAreUnorderedPairs.
		if want := st.NearPairs * direct.FlopsPerPair; st.Flops[metrics.PhaseNear] != want {
			t.Errorf("D=%d: near flops %d, want %d (%d pairs)",
				tc.degree, st.Flops[metrics.PhaseNear], want, st.NearPairs)
		}
	}
}

// TestEvalLocalFlopsAgree checks that both 3-D solvers charge the leaf
// evaluation of step 4 alike: FlopsKernel per kernel term and particle,
// twice that when the solve forms the gradient too.
func TestEvalLocalFlopsAgree(t *testing.T) {
	const n, depth = 2048, 3
	pos, q := testutil.RandomSystem(n, 8)
	cfg, err := core.Config{Degree: 5, Depth: depth}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.NewSolver(testutil.UnitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dp.NewMachine(8, 4, dp.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dpfmm.NewSolver(m, testutil.UnitBox(), cfg, dpfmm.LinearizedAliased)
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range []struct {
		name  string
		solve func(phi []float64, acc []geom.Vec3) error
		stats func() *metrics.Snapshot
	}{
		{"core", func(phi []float64, acc []geom.Vec3) error { return cs.Solve(nil, pos, q, phi, acc) }, cs.Stats},
		{"dpfmm", func(phi []float64, acc []geom.Vec3) error { return ds.Solve(nil, pos, q, phi, acc) }, ds.Stats},
	} {
		var before metrics.Snapshot
		for _, force := range []bool{false, true} {
			var acc []geom.Vec3
			want := int64(n) * int64(cfg.Rule.K()) * int64(cfg.M+1) * core.FlopsKernel
			if force {
				acc = make([]geom.Vec3, n)
				want *= 2
			}
			if err := sv.solve(make([]float64, n), acc); err != nil {
				t.Fatal(err)
			}
			d := sv.stats().Diff(&before)
			before = *sv.stats()
			if got := d.Flops[metrics.PhaseEvalLocal]; got != want {
				t.Errorf("%s force=%v: eval-local flops %d, want %d", sv.name, force, got, want)
			}
		}
	}
}

// TestNearPairsAreUnorderedPairs checks the shared-memory solver's near-field
// accounting against a count that shares nothing with its sweep: NearPairs is
// the number of unordered particle pairs in near boxes — each evaluated once
// and deposited on both particles — and the phase's flops are that many times
// core.NearFlopsPerPair, for a potential and a force solve alike.
func TestNearPairsAreUnorderedPairs(t *testing.T) {
	const n, depth = 4096, 3
	pos, q := testutil.RandomSystem(n, 8)
	s, err := core.NewSolver(testutil.UnitBox(), core.Config{Degree: 5, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	part := core.NewPartition(s.Hierarchy(), pos)
	g := part.Grid
	var ordered int64
	for b := 0; b < g*g*g; b++ {
		c := geom.CoordFromIndex(b, g)
		nb := int64(part.Count(c))
		ordered += nb * (nb - 1)
		for _, o := range tree.NearOffsets(s.Config().Separation) {
			if sc := c.Add(o); sc.In(g) {
				ordered += nb * int64(part.Count(sc))
			}
		}
	}
	var before metrics.Snapshot
	for _, force := range []bool{false, true} {
		if force {
			err = s.Solve(nil, pos, q, make([]float64, len(pos)), make([]geom.Vec3, len(pos)))
		} else {
			err = s.Solve(nil, pos, q, make([]float64, len(pos)), nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		d := s.Stats().Diff(&before)
		before = *s.Stats()
		if d.NearPairs != ordered/2 {
			t.Errorf("force=%v: NearPairs = %d, the near boxes hold %d unordered pairs", force, d.NearPairs, ordered/2)
		}
		if want := d.NearPairs * core.NearFlopsPerPair; d.Flops[metrics.PhaseNear] != want {
			t.Errorf("force=%v: near flops %d, want %d", force, d.Flops[metrics.PhaseNear], want)
		}
	}
}

// TestRecConcurrent hammers one Rec from many goroutines; with -race this
// proves the recording paths are race-free, and the final totals prove no
// increments are lost.
func TestRecConcurrent(t *testing.T) {
	var rec metrics.Rec
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := rec.Begin(metrics.PhaseT2)
				rec.AddFlops(metrics.PhaseT2, 3)
				rec.AddT2(1)
				rec.AddNearPairs(2)
				rec.AddBytes(metrics.PhaseGhost, 8)
				sp.End()
			}
		}()
	}
	// Concurrent reads must also be safe.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var snap metrics.Snapshot
		for i := 0; i < 100; i++ {
			rec.ReadInto(&snap)
		}
	}()
	wg.Wait()
	<-done

	st := rec.Snapshot()
	const total = workers * perWorker
	if st.Flops[metrics.PhaseT2] != 3*total {
		t.Errorf("flops %d, want %d", st.Flops[metrics.PhaseT2], 3*total)
	}
	if st.T2Count != total || st.NearPairs != 2*total {
		t.Errorf("T2=%d pairs=%d, want %d and %d", st.T2Count, st.NearPairs, total, 2*total)
	}
	if st.Calls[metrics.PhaseT2] != total {
		t.Errorf("calls %d, want %d", st.Calls[metrics.PhaseT2], total)
	}
	if st.Bytes[metrics.PhaseGhost] != 8*total {
		t.Errorf("bytes %d, want %d", st.Bytes[metrics.PhaseGhost], 8*total)
	}
}

// allocSink keeps the test allocation live so the compiler cannot elide it.
var allocSink []byte

// TestAllocDelta checks the caller-side heap probe: a known allocation
// inside the probed region must show up in both the object count and the
// byte count, and CaptureInto must land the delta in the snapshot.
func TestAllocDelta(t *testing.T) {
	const size = 1 << 20
	var d metrics.AllocDelta
	d.Start()
	allocSink = make([]byte, size)
	var st metrics.Snapshot
	d.CaptureInto(&st)
	if st.HeapAllocs < 1 {
		t.Errorf("HeapAllocs = %d, want >= 1", st.HeapAllocs)
	}
	if st.HeapBytes < size {
		t.Errorf("HeapBytes = %d, want >= %d", st.HeapBytes, size)
	}
	_ = allocSink
}

// TestNilRecInert checks the disabled fast path: every method of a nil
// *Rec must be a no-op, including spans begun on it.
func TestNilRecInert(t *testing.T) {
	var rec *metrics.Rec
	sp := rec.Begin(metrics.PhaseT1)
	rec.AddFlops(metrics.PhaseT1, 10)
	rec.AddT2(1)
	rec.AddNearPairs(1)
	rec.AddBytes(metrics.PhaseGhost, 1)
	rec.SetShape(1, 2, 3)
	sp.End()
	if st := rec.Snapshot(); st == nil || st.TotalFlops() != 0 {
		t.Errorf("nil Rec snapshot not empty: %+v", st)
	}
}

// TestRecoveryCountersConcurrent hammers one instance-scoped counter set
// from many goroutines; with -race this proves the holder's recording and
// reading paths are race-free, the exact final totals prove no increments
// are lost, and a second set standing beside it proves the counts belong to
// the instance: nothing one owner records is visible on another.
func TestRecoveryCountersConcurrent(t *testing.T) {
	var set, bystander metrics.Set[metrics.RecoveryStats]
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				set.Update(func(r *metrics.RecoveryStats) {
					r.Retries++
					r.BreakerTrips += 2
					r.Degradations += 3
					r.Checkpoints += 4
					r.Resumes += 5
				})
			}
		}()
	}
	// Concurrent reads must also be safe, and every read consistent: the
	// five fields move together under the lock.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if r := set.Read(); r.Resumes != 5*r.Retries {
				t.Errorf("torn read: %+v", r)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	const total = workers * perWorker
	want := metrics.RecoveryStats{
		Retries:      total,
		BreakerTrips: 2 * total,
		Degradations: 3 * total,
		Checkpoints:  4 * total,
		Resumes:      5 * total,
	}
	if rec := set.Read(); rec != want {
		t.Errorf("recovery counters %+v, want %+v", rec, want)
	}
	if rec := bystander.Read(); !rec.Zero() {
		t.Errorf("a second set saw the first one's events: %+v", rec)
	}
}

// TestRecoveryZeroOnHappyPath runs a healthy supervised solve and a healthy
// simulation step and asserts their owners recorded nothing: the counters
// only move when something actually goes wrong, so any nonzero value in a
// report is signal.
func TestRecoveryZeroOnHappyPath(t *testing.T) {
	sys := nbody.NewUniformSystem(4096, 9)
	box := sys.BoundingBox()
	box.Side *= 4 // room for the simulation step
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nbody.NewResilient(nbody.RetryPolicy{}, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Potentials(sys); err != nil {
		t.Fatal(err)
	}
	sim, err := nbody.NewSimulation(sys, nil, r, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	var rec metrics.RecoveryStats
	rec.Retries, rec.BreakerTrips, rec.Degradations = r.Counters()
	rec.Checkpoints, rec.Resumes = sim.Counters()
	if !rec.Zero() {
		t.Errorf("healthy run recorded recovery events: %+v", rec)
	}

	// A solver's phase snapshot carries no serving-side sections at all:
	// cmd/phases JSON has phases (and the planner it owns), nothing else.
	raw, err := json.Marshal(a.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"recovery", "overload", "planner"} {
		if strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("phase snapshot JSON carries a %q section: %s", key, raw)
		}
	}
}
