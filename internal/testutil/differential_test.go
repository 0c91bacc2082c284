package testutil

import (
	"math/rand"
	"testing"

	"nbody/internal/bh"
	"nbody/internal/core"
	"nbody/internal/core2"
	"nbody/internal/direct"
	"nbody/internal/dp"
	"nbody/internal/dpfmm"
	"nbody/internal/geom"
)

// The differential suite: every solver in the repository on the same
// particle systems, checked pairwise against the O(N^2) direct sum (the
// exact reference) and against each other. The bounds are worst-case
// relative errors against the mean field, with headroom over the measured
// values (documented inline) so genuine regressions trip them while seed
// jitter does not.
//
// Measured on the seed systems (N=2000/1500, uniform and clustered):
//
//	anderson D=5  (K=12):  worst ~1.3e-2, rms ~3.6e-3  (paper: ~4 digits rms)
//	anderson D=13 (K=98):  worst ~2.2e-4, rms ~6.4e-5  (paper: ~7 digits rms;
//	  the worst case sits on particles adjacent to a sphere boundary)
//	barnes-hut theta=0.6 quadrupole: worst ~1.0e-1, rms ~2.4e-2
//	dpfmm vs core (same arithmetic, different order): worst ~4e-15
//	core2 K=16 depth 3 vs 2-D direct sum: worst ~1.7e-4
const (
	boundFastWorst  = 5e-2 // D=5 sphere approximation, worst case
	boundAccWorst   = 1e-3 // degree-13 product rule, worst case
	boundBHWorst    = 3e-1 // theta=0.6 opens wide cells; worst case is loose
	boundDPvsCore   = 1e-9 // identical method, different summation order
	boundCore2Worst = 1e-3 // 2-D K=16 trapezoid rule at depth 3
)

func anderson(t *testing.T, degree, depth int, pos []geom.Vec3, q []float64) []float64 {
	t.Helper()
	s, err := core.NewSolver(UnitBox(), core.Config{Degree: degree, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	phi := make([]float64, len(pos))
	if err := s.Solve(nil, pos, q, phi, nil); err != nil {
		t.Fatal(err)
	}
	return phi
}

func TestDifferentialUniform(t *testing.T) {
	pos, q := RandomSystem(2000, 101)
	want := direct.PotentialsParallel(pos, q)

	CheckClose(t, "anderson-D5 vs direct", anderson(t, 5, 3, pos, q), want, boundFastWorst)
	CheckClose(t, "anderson-D13 vs direct", anderson(t, 13, 3, pos, q), want, boundAccWorst)

	tr, err := bh.Build(UnitBox(), pos, q, bh.Config{Theta: 0.6, Quadrupole: true})
	if err != nil {
		t.Fatal(err)
	}
	phiBH, _ := tr.Potentials(bh.Config{Theta: 0.6, Quadrupole: true})
	CheckClose(t, "barnes-hut vs direct", phiBH, want, boundBHWorst)
}

func TestDifferentialClustered(t *testing.T) {
	pos, q := ClusteredSystem(1500, 102)
	want := direct.PotentialsParallel(pos, q)
	CheckClose(t, "anderson-D5 vs direct (clustered)", anderson(t, 5, 3, pos, q), want, boundFastWorst)
	CheckClose(t, "anderson-D13 vs direct (clustered)", anderson(t, 13, 3, pos, q), want, boundAccWorst)
}

// TestDifferentialDataParallel checks the simulated-machine implementation
// against the shared-memory reference box for box: same method, same
// translation matrices, so the two must agree to summation-order noise —
// for every ghost strategy and both storage layouts.
func TestDifferentialDataParallel(t *testing.T) {
	pos, q := RandomSystem(1500, 103)
	cfg := core.Config{Degree: 5, Depth: 3}
	ref := anderson(t, 5, 3, pos, q)

	m, err := dp.NewMachine(8, 4, dp.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []dpfmm.GhostStrategy{
		dpfmm.DirectUnaliased, dpfmm.LinearizedUnaliased,
		dpfmm.DirectAliased, dpfmm.LinearizedAliased,
	} {
		for _, mg := range []bool{false, true} {
			s, err := dpfmm.NewSolver(m, UnitBox(), cfg, strat)
			if err != nil {
				t.Fatal(err)
			}
			s.MultigridStorage = mg
			phi := make([]float64, len(pos))
			if err := s.Solve(nil, pos, q, phi, nil); err != nil {
				t.Fatal(err)
			}
			name := "dpfmm-" + strat.String()
			if mg {
				name += "-multigrid"
			}
			CheckClose(t, name+" vs anderson", phi, ref, boundDPvsCore)
		}
	}
}

// TestDifferential2D checks the 2-D solver against the 2-D direct sum.
func TestDifferential2D(t *testing.T) {
	const n = 1500
	rng := rand.New(rand.NewSource(104))
	pos := make([]geom.Vec2, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64(), Y: rng.Float64()}
		q[i] = rng.Float64() - 0.5
	}
	s, err := core2.NewSolver(geom.Box2{Center: geom.Vec2{X: 0.5, Y: 0.5}, Side: 1.001},
		core2.Config{K: 16, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	phi := make([]float64, len(pos))
	if err := s.Solve(nil, pos, q, phi); err != nil {
		t.Fatal(err)
	}
	CheckClose(t, "anderson2d vs direct2d", phi, core2.DirectPotentials2(pos, q), boundCore2Worst)
}
