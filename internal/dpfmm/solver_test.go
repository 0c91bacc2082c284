package dpfmm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nbody/internal/core"
	"nbody/internal/direct"
	"nbody/internal/dp"
	"nbody/internal/geom"
)

func unitBox() geom.Box3 {
	return geom.Box3{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}
}

func uniformParticles(rng *rand.Rand, n int) ([]geom.Vec3, []float64) {
	pos := make([]geom.Vec3, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		q[i] = rng.Float64()
	}
	return pos, q
}

func newTestMachine(t *testing.T, nodes int) *dp.Machine {
	t.Helper()
	m, err := dp.NewMachine(nodes, 4, dp.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// solver is the Solve signature this package shares with core's reference.
type solver interface {
	Solve(ctx context.Context, pos []geom.Vec3, q []float64, phi []float64, acc []geom.Vec3) error
}

// potentials and accelerations are Solve into fresh output slices.
func potentials(s solver, pos []geom.Vec3, q []float64) ([]float64, error) {
	phi := make([]float64, len(pos))
	if err := s.Solve(nil, pos, q, phi, nil); err != nil {
		return nil, err
	}
	return phi, nil
}

func accelerations(s solver, pos []geom.Vec3, q []float64) ([]float64, []geom.Vec3, error) {
	phi, acc := make([]float64, len(pos)), make([]geom.Vec3, len(pos))
	if err := s.Solve(nil, pos, q, phi, acc); err != nil {
		return nil, nil, err
	}
	return phi, acc, nil
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i]-b[i]) / (1 + math.Abs(b[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestAllStrategiesMatchSharedMemorySolver is the package's central
// correctness statement: the data-parallel expression computes the same
// potentials as the shared-memory reference, for every ghost strategy.
func TestAllStrategiesMatchSharedMemorySolver(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pos, q := uniformParticles(rng, 800)
	cfg := core.Config{Degree: 5, Depth: 3}

	ref, err := core.NewSolver(unitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := potentials(ref, pos, q)
	if err != nil {
		t.Fatal(err)
	}

	for _, strat := range []GhostStrategy{DirectUnaliased, LinearizedUnaliased, DirectAliased, LinearizedAliased} {
		m := newTestMachine(t, 4)
		s, err := NewSolver(m, unitBox(), cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := potentials(s, pos, q)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if d := maxRelDiff(got, want); d > 1e-9 {
			t.Errorf("%v: max relative difference vs reference %.2e", strat, d)
		}
	}
}

func TestDataParallelAccuracyVsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	pos, q := uniformParticles(rng, 1200)
	m := newTestMachine(t, 8)
	s, err := NewSolver(m, unitBox(), core.Config{Degree: 9, Depth: 3}, DirectAliased)
	if err != nil {
		t.Fatal(err)
	}
	got, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(pos, q)
	var rms, mean float64
	for i := range got {
		d := got[i] - want[i]
		rms += d * d
		mean += math.Abs(want[i])
	}
	rms = math.Sqrt(rms / float64(len(got)))
	mean /= float64(len(got))
	if rms/mean > 1e-4 {
		t.Errorf("relative error %.2e", rms/mean)
	}
}

func TestCoordinateSortEliminatesReshapeCommunication(t *testing.T) {
	// Section 3.2's claim: for a uniform distribution with at least one
	// leaf box per VU, the coordinate sort leaves every particle on the
	// same VU as its leaf box, so the 1-D -> 4-D reshape is local.
	rng := rand.New(rand.NewSource(83))
	pos, q := uniformParticles(rng, 4000)
	m := newTestMachine(t, 4) // 16 VUs, 512 leaf boxes at depth 3
	s, err := NewSolver(m, unitBox(), core.Config{Degree: 5, Depth: 3}, DirectAliased)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := potentials(s, pos, q); err != nil {
		t.Fatal(err)
	}
	rs := s.ReshapeStats()
	total := rs.MovedOffVU + rs.Local
	if total == 0 {
		t.Fatal("no reshape recorded")
	}
	// Uniformity is only approximate at N=4000 over 512 boxes, so the VU
	// boundary in the sorted order drifts slightly ("it is expected that
	// the coordinate sort will leave most particles in the same VU").
	// Require >85% locality — an unsorted assignment would leave only
	// 1/16 local.
	if float64(rs.MovedOffVU) > 0.15*float64(total) {
		t.Errorf("reshape moved %d of %d particles off-VU", rs.MovedOffVU, total)
	}
}

// TestReshapeStatsBelongToTheSolver checks that reshape statistics are
// read from the solver that sorted: a solve on a second solver must not
// overwrite the first one's locality.
func TestReshapeStatsBelongToTheSolver(t *testing.T) {
	cfg := core.Config{Degree: 5, Depth: 3}
	solve := func(pos []geom.Vec3, q []float64) *Solver {
		s, err := NewSolver(newTestMachine(t, 4), unitBox(), cfg, DirectAliased)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := potentials(s, pos, q); err != nil {
			t.Fatal(err)
		}
		return s
	}
	uniform := solve(uniformParticles(rand.New(rand.NewSource(83)), 4000))
	want := uniform.ReshapeStats()
	// Every particle in one corner box: most of the sorted array sits on
	// VUs far from that box's.
	pos, q := make([]geom.Vec3, 4000), make([]float64, 4000)
	rng := rand.New(rand.NewSource(84))
	for i := range pos {
		pos[i] = geom.Vec3{X: 0.1 * rng.Float64(), Y: 0.1 * rng.Float64(), Z: 0.1 * rng.Float64()}
		q[i] = 1
	}
	clustered := solve(pos, q).ReshapeStats()
	if clustered == want {
		t.Fatalf("clustered reshape %+v equals the uniform one", clustered)
	}
	if got := uniform.ReshapeStats(); got != want {
		t.Errorf("uniform solver's reshape stats changed from %+v to %+v by another solver's solve", want, got)
	}
	if float64(want.MovedOffVU) > 0.15*float64(want.MovedOffVU+want.Local) {
		t.Errorf("uniform reshape moved %d of %d particles off-VU", want.MovedOffVU, want.MovedOffVU+want.Local)
	}
	if clustered.Local > clustered.MovedOffVU {
		t.Errorf("single-box reshape kept %d of %d particles local", clustered.Local, clustered.MovedOffVU+clustered.Local)
	}
}

func TestGhostStrategyDataMotionOrdering(t *testing.T) {
	// Table 4's qualitative content: aliased strategies move far less data
	// than unaliased ones, and the linearized-unaliased walk issues ~unit
	// shifts only while the direct-unaliased walk issues fewer, larger
	// shifts.
	rng := rand.New(rand.NewSource(84))
	pos, q := uniformParticles(rng, 500)
	cfg := core.Config{Degree: 3, Depth: 3}
	type result struct {
		c dp.Counters
	}
	res := map[GhostStrategy]result{}
	for _, strat := range []GhostStrategy{DirectUnaliased, LinearizedUnaliased, DirectAliased, LinearizedAliased} {
		m := newTestMachine(t, 4)
		s, err := NewSolver(m, unitBox(), cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		before := m.Counters()
		if _, err := potentials(s, pos, q); err != nil {
			t.Fatal(err)
		}
		res[strat] = result{c: m.Counters().Sub(before)}
	}
	offA := res[DirectAliased].c.OffVUWords
	offLA := res[LinearizedAliased].c.OffVUWords
	offDU := res[DirectUnaliased].c.OffVUWords
	offLU := res[LinearizedUnaliased].c.OffVUWords
	if offA >= offDU || offA >= offLU {
		t.Errorf("aliased off-VU (%d) not below unaliased (%d direct, %d linearized)",
			offA, offDU, offLU)
	}
	if offLA != offA {
		t.Errorf("the two aliased fills should move identical data: %d vs %d", offLA, offA)
	}
	if res[DirectAliased].c.CShifts <= res[LinearizedAliased].c.CShifts {
		t.Errorf("direct aliased should issue more shift operations: %d vs %d",
			res[DirectAliased].c.CShifts, res[LinearizedAliased].c.CShifts)
	}
	// The linearized walk reuses the traveling array: fewer CSHIFT calls
	// (unit steps through the cube) and less off-VU data than restarting a
	// multi-axis shift from scratch for each of the 1206 offsets — the 7.4x
	// improvement of Section 3.3.1.
	if res[LinearizedUnaliased].c.CShifts >= res[DirectUnaliased].c.CShifts {
		t.Errorf("linearized walk should issue fewer shifts: %d vs %d",
			res[LinearizedUnaliased].c.CShifts, res[DirectUnaliased].c.CShifts)
	}
	if offLU >= offDU {
		t.Errorf("linearized walk should move fewer words: %d vs %d", offLU, offDU)
	}
}

func TestSolverRejectsBadInput(t *testing.T) {
	m := newTestMachine(t, 2)
	if _, err := NewSolver(m, unitBox(), core.Config{}, DirectAliased); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSolver(m, unitBox(), core.Config{Degree: 5, Depth: 3, Supernodes: true}, DirectAliased); err == nil {
		t.Error("supernodes accepted")
	}
	s, err := NewSolver(m, unitBox(), core.Config{Degree: 5, Depth: 2}, DirectAliased)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := potentials(s, make([]geom.Vec3, 2), make([]float64, 3)); err == nil {
		t.Error("mismatched input accepted")
	}
	if _, err := potentials(s, []geom.Vec3{{X: 9}}, []float64{1}); err == nil {
		t.Error("out-of-domain particle accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	names := map[GhostStrategy]string{
		DirectUnaliased:     "direct-unaliased",
		LinearizedUnaliased: "linearized-unaliased",
		DirectAliased:       "direct-aliased",
		LinearizedAliased:   "linearized-aliased",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestComputeCyclesCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	pos, q := uniformParticles(rng, 400)
	m := newTestMachine(t, 2)
	s, err := NewSolver(m, unitBox(), core.Config{Degree: 5, Depth: 3}, DirectAliased)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := potentials(s, pos, q); err != nil {
		t.Fatal(err)
	}
	maxC, meanC := m.MaxComputeCycles()
	if maxC <= 0 || meanC <= 0 {
		t.Errorf("no compute cycles charged: max=%g mean=%g", maxC, meanC)
	}
	if m.Counters().Flops <= 0 {
		t.Error("no flops recorded")
	}
}

func TestMultigridStorageMatchesPerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	pos, q := uniformParticles(rng, 700)
	cfg := core.Config{Degree: 5, Depth: 4}

	run := func(mg bool) []float64 {
		m := newTestMachine(t, 4)
		s, err := NewSolver(m, unitBox(), cfg, LinearizedAliased)
		if err != nil {
			t.Fatal(err)
		}
		s.MultigridStorage = mg
		phi, err := potentials(s, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		return phi
	}
	plain := run(false)
	embedded := run(true)
	for i := range plain {
		if math.Abs(plain[i]-embedded[i]) > 1e-10*(1+math.Abs(plain[i])) {
			t.Fatalf("multigrid storage mismatch at %d: %g vs %g", i, embedded[i], plain[i])
		}
	}
}

func TestRejectsNaNPositions(t *testing.T) {
	m := newTestMachine(t, 2)
	s, err := NewSolver(m, unitBox(), core.Config{Degree: 5, Depth: 2}, DirectAliased)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := potentials(s, []geom.Vec3{{X: math.NaN(), Y: 0.5, Z: 0.5}}, []float64{1}); err == nil {
		t.Error("NaN position accepted")
	}
}
