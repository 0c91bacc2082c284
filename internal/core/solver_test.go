package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nbody/internal/direct"
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
		q[i] = rng.Float64() // all-positive charges: no cancellation hiding errors
	}
	return pos, q
}

// potentials and accelerations are Solve into fresh output slices.
func potentials(s *Solver, pos []geom.Vec3, q []float64) ([]float64, error) {
	phi := make([]float64, len(pos))
	if err := s.Solve(nil, pos, q, phi, nil); err != nil {
		return nil, err
	}
	return phi, nil
}

func accelerations(s *Solver, pos []geom.Vec3, q []float64) ([]float64, []geom.Vec3, error) {
	phi, acc := make([]float64, len(pos)), make([]geom.Vec3, len(pos))
	if err := s.Solve(nil, pos, q, phi, acc); err != nil {
		return nil, nil, err
	}
	return phi, acc, nil
}

// relErr returns RMS(|got-want|) / mean(|want|): the paper's
// error-relative-to-mean metric.
func relErr(got, want []float64) float64 {
	var rms, mean float64
	for i := range got {
		d := got[i] - want[i]
		rms += d * d
		mean += math.Abs(want[i])
	}
	rms = math.Sqrt(rms / float64(len(got)))
	mean /= float64(len(got))
	return rms / mean
}

func solveAndCompare(t *testing.T, cfg Config, n int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pos, q := uniformParticles(rng, n)
	s, err := NewSolver(unitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(pos, q)
	return relErr(phi, want)
}

func TestSolverAccuracyLowOrder(t *testing.T) {
	// K=12 (icosahedron), the paper's D=5 configuration: expect ~3-4
	// digits relative to the mean.
	e := solveAndCompare(t, Config{Degree: 5, Depth: 3}, 2000, 51)
	if e > 2e-3 {
		t.Errorf("D=5 relative error %.2e, want < 2e-3", e)
	}
}

func TestSolverAccuracyHighOrder(t *testing.T) {
	// Degree 13 (K=98 product rule, standing in for the paper's D=14
	// K=72 McLaren rule): expect ~6 digits relative to the mean.
	e := solveAndCompare(t, Config{Degree: 13, Depth: 3}, 1500, 52)
	if e > 5e-6 {
		t.Errorf("D=13 relative error %.2e, want < 5e-6", e)
	}
}

func TestSolverDepthIndependence(t *testing.T) {
	// The answer must not depend (much) on the hierarchy depth: the same
	// system solved at depths 3 and 4 agrees to the method's accuracy.
	rng := rand.New(rand.NewSource(53))
	pos, q := uniformParticles(rng, 3000)
	var phis [][]float64
	for _, depth := range []int{3, 4} {
		s, err := NewSolver(unitBox(), Config{Degree: 9, Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		phi, err := potentials(s, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		phis = append(phis, phi)
	}
	if e := relErr(phis[0], phis[1]); e > 2e-4 {
		t.Errorf("depth 3 vs 4 disagree: %.2e", e)
	}
}

func TestSolverSupernodesMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pos, q := uniformParticles(rng, 2500)
	base, err := NewSolver(unitBox(), Config{Degree: 9, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSolver(unitBox(), Config{Degree: 9, Depth: 4, Supernodes: true})
	if err != nil {
		t.Fatal(err)
	}
	phiB, err := potentials(base, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	phiS, err := potentials(sup, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	// Supernodes trade a little accuracy for 875 -> 189 translations; the
	// two results agree to the method's accuracy band.
	if e := relErr(phiS, phiB); e > 5e-4 {
		t.Errorf("supernode vs plain: %.2e", e)
	}
	// And the translation count drops accordingly.
	if base.Stats().T2Count <= 2*sup.Stats().T2Count {
		t.Errorf("supernodes did not reduce T2 count: %d vs %d",
			base.Stats().T2Count, sup.Stats().T2Count)
	}
	if e := solveAndCompareWith(t, sup, pos, q); e > 1e-3 {
		t.Errorf("supernode absolute accuracy: %.2e", e)
	}
}

func solveAndCompareWith(t *testing.T, s *Solver, pos []geom.Vec3, q []float64) float64 {
	t.Helper()
	phi, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	return relErr(phi, direct.PotentialsParallel(pos, q))
}

func TestSolverAggregationMatchesGemv(t *testing.T) {
	// The per-box ablation walks the same lattices through the same kernel
	// one vector at a time, so the two paths agree bitwise — with and
	// without supernodes, potentials and fields.
	rng := rand.New(rand.NewSource(55))
	pos, q := uniformParticles(rng, 2000)
	for _, cfg := range []Config{
		{Degree: 5, Depth: 3},
		{Degree: 7, Depth: 4, Supernodes: true},
	} {
		agg, err := NewSolver(unitBox(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.DisableAggregation = true
		gemv, err := NewSolver(unitBox(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		phiA, accA, err := accelerations(agg, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		phiG, accG, err := accelerations(gemv, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range phiA {
			if phiA[i] != phiG[i] || accA[i] != accG[i] {
				t.Fatalf("supernodes=%v: aggregated/gemv mismatch at %d: (%g, %v) vs (%g, %v)",
					cfg.Supernodes, i, phiA[i], accA[i], phiG[i], accG[i])
			}
		}
		if a, g := agg.Stats(), gemv.Stats(); a.T2Count != g.T2Count || a.TraversalFlops() != g.TraversalFlops() {
			t.Errorf("supernodes=%v: aggregated counts %d conversions / %d flops, gemv %d / %d",
				cfg.Supernodes, a.T2Count, a.TraversalFlops(), g.T2Count, g.TraversalFlops())
		}
	}
}

func TestSolverSeparationOne(t *testing.T) {
	// d=1 (the original Greengard-Rokhlin near field in 2-D terms) still
	// converges, just less accurately at the same order.
	e1 := solveAndCompare(t, Config{Degree: 11, Depth: 3, Separation: 1, RadiusRatio: 0.95}, 1500, 56)
	e2 := solveAndCompare(t, Config{Degree: 11, Depth: 3}, 1500, 56)
	if e1 > 1e-2 {
		t.Errorf("d=1 error %.2e too large", e1)
	}
	if e2 > e1 {
		t.Errorf("two-separation (%.2e) should beat one-separation (%.2e)", e2, e1)
	}
}

func TestSolverAccelerations(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	pos, q := uniformParticles(rng, 1200)
	s, err := NewSolver(unitBox(), Config{Degree: 11, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	phi, acc, err := accelerations(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	wantPhi := direct.PotentialsParallel(pos, q)
	if e := relErr(phi, wantPhi); e > 1e-4 {
		t.Errorf("potential error %.2e", e)
	}
	wantAcc := direct.Accelerations(pos, q)
	var rms, mean float64
	for i := range acc {
		rms += acc[i].Sub(wantAcc[i]).Norm2()
		mean += wantAcc[i].Norm()
	}
	rms = math.Sqrt(rms / float64(len(acc)))
	mean /= float64(len(acc))
	if rms/mean > 1e-3 {
		t.Errorf("acceleration error %.2e relative to mean", rms/mean)
	}
}

func TestSolverEmptyAndTinyBoxes(t *testing.T) {
	// A clustered distribution leaves most leaf boxes empty; the solver
	// must handle empty boxes and still be accurate for the occupied ones.
	rng := rand.New(rand.NewSource(58))
	n := 600
	pos := make([]geom.Vec3, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec3{
			X: 0.1 + 0.2*rng.Float64(),
			Y: 0.7 + 0.2*rng.Float64(),
			Z: 0.4 + 0.2*rng.Float64(),
		}
		q[i] = rng.Float64()
	}
	s, err := NewSolver(unitBox(), Config{Degree: 9, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(phi, direct.PotentialsParallel(pos, q)); e > 1e-4 {
		t.Errorf("clustered error %.2e", e)
	}
}

func TestSolverRejectsOutOfDomainParticle(t *testing.T) {
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = potentials(s, []geom.Vec3{{X: 2, Y: 0.5, Z: 0.5}}, []float64{1})
	if err == nil {
		t.Error("out-of-domain particle accepted")
	}
}

// TestSolverOutOfDomainLeavesOutputs: the domain check runs in the sort's
// binning pass, after the particles before the stray one are binned. The
// error still names the particle and the domain, the caller's outputs keep
// every bit, and the next solve on the Solver equals a fresh Solver's.
func TestSolverOutOfDomainLeavesOutputs(t *testing.T) {
	pos, q := uniformParticles(rand.New(rand.NewSource(9)), 600)
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, stray := range []geom.Vec3{{X: 0.5, Y: 1.5, Z: 0.5}, {X: 0.5, Y: 0.5, Z: math.NaN()}} {
		bad := append(append([]geom.Vec3(nil), pos...), stray)
		phi, acc := make([]float64, len(bad)), make([]geom.Vec3, len(bad))
		for i := range phi {
			phi[i], acc[i] = -7, geom.Vec3{X: -7, Y: -7, Z: -7}
		}
		err := s.Solve(nil, bad, append(append([]float64(nil), q...), 1), phi, acc)
		want := fmt.Sprintf("core: particle %v outside domain %v", stray, unitBox())
		if err == nil || err.Error() != want {
			t.Fatalf("Solve with %v = %v, want %q", stray, err, want)
		}
		for i := range phi {
			if phi[i] != -7 || acc[i] != (geom.Vec3{X: -7, Y: -7, Z: -7}) {
				t.Fatalf("particle %d: output written by a rejected solve", i)
			}
		}
	}
	got, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := potentials(fresh, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("particle %d after a rejected solve: %v, a fresh solver gives %v", i, got[i], want[i])
		}
	}
}

func TestSolverRejectsMismatchedInput(t *testing.T) {
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = potentials(s, make([]geom.Vec3, 3), make([]float64, 2))
	if err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestSolverBoundaryParticles(t *testing.T) {
	// Particles exactly on domain faces and corners must be accepted and
	// assigned.
	pos := []geom.Vec3{
		{X: 0, Y: 0, Z: 0},
		{X: 1, Y: 1, Z: 1}, // upper corner: clamped into last leaf
		{X: 0.5, Y: 1, Z: 0.5},
		{X: 0.25, Y: 0.25, Z: 0.25},
	}
	q := []float64{1, 1, 1, 1}
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Potentials(pos, q)
	for i := range phi {
		if math.Abs(phi[i]-want[i])/math.Abs(want[i]) > 5e-2 {
			t.Errorf("boundary particle %d: %g vs %g", i, phi[i], want[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                      // no degree, no rule
		{Degree: 5},                             // no depth
		{Degree: 5, Depth: 1},                   // depth too small
		{Degree: 5, Depth: 3, M: -1},            // negative M
		{Degree: 5, Depth: 3, RadiusRatio: 0.5}, // ratio below sqrt(3)/2
		{Degree: 5, Depth: 3, RadiusRatio: 2.0}, // ratio too large for d=2
		{Degree: 5, Depth: 3, Separation: -1},   // bad separation
		{Degree: 5, Depth: 3, Separation: 1, Supernodes: true}, // supernodes need d=2
	}
	for i, cfg := range bad {
		if _, err := cfg.normalize(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good, err := Config{Degree: 5, Depth: 3}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if good.M != 3 || good.RadiusRatio != DefaultRadiusRatio || good.Separation != 2 {
		t.Errorf("defaults wrong: %+v", good)
	}
}

func TestOptimalDepth(t *testing.T) {
	if d := OptimalDepth(0, 32); d != 2 {
		t.Errorf("OptimalDepth(0) = %d", d)
	}
	// Depth grows by one for every 8x in N.
	d1 := OptimalDepth(10000, 32)
	d2 := OptimalDepth(80000, 32)
	if d2 != d1+1 {
		t.Errorf("depth(8N) = %d, depth(N) = %d, want +1", d2, d1)
	}
	if d := OptimalDepth(100, 0); d < 2 {
		t.Errorf("default perBox broken: %d", d)
	}
}

func TestTranslationSetCounts(t *testing.T) {
	cfg, _ := Config{Degree: 5, Depth: 3, Supernodes: true}.normalize()
	ts := NewTranslationSet(cfg)
	if len(ts.T2T) != 1331 {
		t.Errorf("T2 store = %d, want 1331", len(ts.T2T))
	}
	// 1331 * 12^2 * 8 bytes = 1.53 MB, the paper's figure for K=12.
	if mb := float64(ts.MatrixBytes()) / 1e6; math.Abs(mb-1.533) > 0.01 {
		t.Errorf("matrix store = %.3f MB, want ~1.53", mb)
	}
	for oct := 0; oct < 8; oct++ {
		if len(ts.T2Super[oct]) != 98 {
			t.Errorf("oct %d: %d supernode matrices, want 98", oct, len(ts.T2Super[oct]))
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pos, q := uniformParticles(rng, 1000)
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := potentials(s, pos, q); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TotalFlops() <= 0 {
		t.Error("no flops recorded")
	}
	if st.NearPairs <= 0 || st.T2Count <= 0 {
		t.Errorf("counts not recorded: near=%d t2=%d", st.NearPairs, st.T2Count)
	}
	for _, p := range []Phase{PhaseLeafOuter, PhaseUpward, PhaseT2, PhaseT3, PhaseEvalLocal, PhaseNear} {
		if st.Flops[p] <= 0 {
			t.Errorf("phase %v has no flops", p)
		}
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

func TestSolverRejectsNaNPosition(t *testing.T) {
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := potentials(s, []geom.Vec3{{X: math.NaN(), Y: 0.5, Z: 0.5}}, []float64{1}); err == nil {
		t.Error("NaN position accepted")
	}
}
