package core2

import (
	"math"
	"math/rand"
	"testing"

	"nbody/internal/geom"
)

func unitBox2() geom.Box2 {
	return geom.Box2{Center: geom.Vec2{X: 0.5, Y: 0.5}, Side: 1}
}

func uniform2(rng *rand.Rand, n int) ([]geom.Vec2, []float64) {
	pos := make([]geom.Vec2, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64(), Y: rng.Float64()}
		q[i] = rng.Float64()
	}
	return pos, q
}

// potentials is Solve into a fresh output slice.
func potentials(s *Solver, pos []geom.Vec2, q []float64) ([]float64, error) {
	phi := make([]float64, len(pos))
	if err := s.Solve(nil, pos, q, phi); err != nil {
		return nil, err
	}
	return phi, nil
}

// relErr2 uses mean |phi| normalization; in 2-D phi can pass through zero,
// so the mean-based metric is the right one (as in the paper).
func relErr2(got, want []float64) float64 {
	var rms, mean float64
	for i := range got {
		d := got[i] - want[i]
		rms += d * d
		mean += math.Abs(want[i])
	}
	return math.Sqrt(rms/float64(len(got))) / (mean/float64(len(got)) + 1e-300)
}

func TestConfigValidation2(t *testing.T) {
	bad := []Config{
		{},
		{K: 2, Depth: 3},
		{K: 8, Depth: 1},
		{K: 8, Depth: 3, M: 4},             // 2M >= K
		{K: 8, Depth: 3, RadiusRatio: 0.5}, // below sqrt(2)/2
		{K: 8, Depth: 3, RadiusRatio: 1.6}, // too large for separation 2
		{K: 8, Depth: 3, Separation: -2},
	}
	for i, cfg := range bad {
		if _, err := cfg.normalize(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good, err := Config{K: 12, Depth: 3}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if good.M != 5 || good.RadiusRatio != DefaultRadiusRatio2 || good.Separation != 2 {
		t.Errorf("defaults: %+v", good)
	}
}

func TestAccuracyImprovesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pos, q := uniform2(rng, 1500)
	want := DirectPotentials2(pos, q)
	var errs []float64
	for _, k := range []int{8, 16, 32} {
		s, err := NewSolver(unitBox2(), Config{K: k, Depth: 3})
		if err != nil {
			t.Fatal(err)
		}
		phi, err := potentials(s, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, relErr2(phi, want))
	}
	t.Logf("2-D errors vs K: %v", errs)
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1] {
			t.Errorf("error not decreasing with K: %v", errs)
		}
	}
	if errs[len(errs)-1] > 1e-6 {
		t.Errorf("K=32 error %.2e too large", errs[len(errs)-1])
	}
	if errs[0] > 1e-3 {
		t.Errorf("K=8 error %.2e too large", errs[0])
	}
}

func TestDepthIndependence2(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	pos, q := uniform2(rng, 2000)
	var phis [][]float64
	for _, depth := range []int{3, 4, 5} {
		s, err := NewSolver(unitBox2(), Config{K: 16, Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		phi, err := potentials(s, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		phis = append(phis, phi)
	}
	if e := relErr2(phis[0], phis[1]); e > 1e-5 {
		t.Errorf("depth 3 vs 4: %.2e", e)
	}
	if e := relErr2(phis[1], phis[2]); e > 1e-5 {
		t.Errorf("depth 4 vs 5: %.2e", e)
	}
}

func TestSignedChargesAndNeutralSystems(t *testing.T) {
	// Charge-neutral systems exercise the monopole bookkeeping: the total
	// Q log terms cancel globally but not per box.
	rng := rand.New(rand.NewSource(93))
	pos := make([]geom.Vec2, 1000)
	q := make([]float64, 1000)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64(), Y: rng.Float64()}
		if i%2 == 0 {
			q[i] = 1
		} else {
			q[i] = -1
		}
	}
	s, err := NewSolver(unitBox2(), Config{K: 16, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	want := DirectPotentials2(pos, q)
	// Normalize by RMS of want (mean |phi| is fine too, but phi is signed).
	var rms, wrms float64
	for i := range phi {
		rms += (phi[i] - want[i]) * (phi[i] - want[i])
		wrms += want[i] * want[i]
	}
	if math.Sqrt(rms/wrms) > 5e-4 {
		t.Errorf("neutral system error %.2e", math.Sqrt(rms/wrms))
	}
}

func TestTwoParticleExactness2(t *testing.T) {
	// Two far-separated particles: the method must reproduce -q ln r to
	// near machine precision at high K.
	pos := []geom.Vec2{{X: 0.03, Y: 0.07}, {X: 0.93, Y: 0.91}}
	q := []float64{2, 3}
	s, err := NewSolver(unitBox2(), Config{K: 32, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	r := pos[0].Dist(pos[1])
	want0 := -q[1] * math.Log(r)
	want1 := -q[0] * math.Log(r)
	if math.Abs(phi[0]-want0) > 1e-9 || math.Abs(phi[1]-want1) > 1e-9 {
		t.Errorf("phi = %v, want %g, %g", phi, want0, want1)
	}
}

func TestRejectsBadInput2(t *testing.T) {
	s, err := NewSolver(unitBox2(), Config{K: 8, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := potentials(s, make([]geom.Vec2, 2), make([]float64, 1)); err == nil {
		t.Error("mismatched input accepted")
	}
	if _, err := potentials(s, []geom.Vec2{{X: 5, Y: 0}}, []float64{1}); err == nil {
		t.Error("out-of-domain accepted")
	}
}

func TestSeparationOne2(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	pos, q := uniform2(rng, 800)
	want := DirectPotentials2(pos, q)
	s1, err := NewSolver(unitBox2(), Config{K: 16, Depth: 3, Separation: 1, RadiusRatio: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	phi1, err := potentials(s1, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSolver(unitBox2(), Config{K: 16, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	phi2, err := potentials(s2, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := relErr2(phi1, want), relErr2(phi2, want)
	if e1 > 1e-2 {
		t.Errorf("one-separation error %.2e", e1)
	}
	if e2 >= e1 {
		t.Errorf("two-separation (%.2e) should beat one-separation (%.2e)", e2, e1)
	}
}

func TestClustered2(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	pos := make([]geom.Vec2, 500)
	q := make([]float64, 500)
	for i := range pos {
		pos[i] = geom.Vec2{X: 0.1 + 0.3*rng.Float64(), Y: 0.6 + 0.3*rng.Float64()}
		q[i] = rng.Float64()
	}
	s, err := NewSolver(unitBox2(), Config{K: 16, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := potentials(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr2(phi, DirectPotentials2(pos, q)); e > 1e-5 {
		t.Errorf("clustered error %.2e", e)
	}
}

func TestSupernodes2MatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	pos, q := uniform2(rng, 2000)
	want := DirectPotentials2(pos, q)

	plain, err := NewSolver(unitBox2(), Config{K: 16, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSolver(unitBox2(), Config{K: 16, Depth: 4, Supernodes: true})
	if err != nil {
		t.Fatal(err)
	}
	phiP, err := potentials(plain, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	phiS, err := potentials(sup, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	// Supernodes trade a little accuracy; both must stay in the method's
	// accuracy band and agree with each other.
	if e := relErr2(phiP, want); e > 1e-4 {
		t.Errorf("plain error %.2e", e)
	}
	if e := relErr2(phiS, want); e > 1e-3 {
		t.Errorf("supernode error %.2e", e)
	}
	if e := relErr2(phiS, phiP); e > 1e-3 {
		t.Errorf("supernode vs plain %.2e", e)
	}
}

func TestSupernodes2RequiresSeparationTwo(t *testing.T) {
	if _, err := (Config{K: 8, Depth: 3, Separation: 1, RadiusRatio: 0.75, Supernodes: true}).normalize(); err == nil {
		t.Error("supernodes with separation 1 accepted")
	}
}
