package direct

import (
	"math"
	"math/rand"
	"testing"

	"nbody/internal/geom"
)

func randomSystem(rng *rand.Rand, n int) ([]geom.Vec3, []float64) {
	pos := make([]geom.Vec3, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		q[i] = rng.Float64()*2 - 1
	}
	return pos, q
}

func TestPotentialsTwoBody(t *testing.T) {
	pos := []geom.Vec3{{X: 0}, {X: 2}}
	q := []float64{3, 5}
	phi := Potentials(pos, q)
	if math.Abs(phi[0]-2.5) > 1e-15 || math.Abs(phi[1]-1.5) > 1e-15 {
		t.Errorf("phi = %v", phi)
	}
}

func TestParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pos, q := randomSystem(rng, 300)
	a := Potentials(pos, q)
	b := PotentialsParallel(pos, q)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12*(1+math.Abs(a[i])) {
			t.Fatalf("mismatch at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestAccelerationsMatchPotentialGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pos, q := randomSystem(rng, 50)
	acc := Accelerations(pos, q)
	// Finite-difference the potential field at particle 0 (excluding self).
	h := 1e-6
	probe := func(x geom.Vec3) float64 {
		var s float64
		for j := 1; j < len(pos); j++ {
			s += q[j] / x.Dist(pos[j])
		}
		return s
	}
	p := pos[0]
	grad := geom.Vec3{
		X: (probe(geom.Vec3{X: p.X + h, Y: p.Y, Z: p.Z}) - probe(geom.Vec3{X: p.X - h, Y: p.Y, Z: p.Z})) / (2 * h),
		Y: (probe(geom.Vec3{X: p.X, Y: p.Y + h, Z: p.Z}) - probe(geom.Vec3{X: p.X, Y: p.Y - h, Z: p.Z})) / (2 * h),
		Z: (probe(geom.Vec3{X: p.X, Y: p.Y, Z: p.Z + h}) - probe(geom.Vec3{X: p.X, Y: p.Y, Z: p.Z - h})) / (2 * h),
	}
	// a = +grad phi with the (y-x)/r^3 convention used here... verify sign
	// and value against the finite difference of sum q/r, whose gradient is
	// sum q (y-x)/r^3.
	if acc[0].Sub(grad).Norm() > 1e-4*(1+grad.Norm()) {
		t.Errorf("acc[0] = %v, FD grad = %v", acc[0], grad)
	}
}

func TestPotentialAt(t *testing.T) {
	pos := []geom.Vec3{{X: 1}}
	q := []float64{2}
	if got := PotentialAt(geom.Vec3{X: 3}, pos, q); math.Abs(got-1) > 1e-15 {
		t.Errorf("PotentialAt = %g", got)
	}
}

func TestPairwisePlusWithinEqualsFull(t *testing.T) {
	// Splitting a system into two boxes and using Pairwise + Within must
	// reproduce the full direct sum: this is the correctness of the
	// symmetric near-field scheme.
	rng := rand.New(rand.NewSource(34))
	pos, q := randomSystem(rng, 120)
	nA := 50
	phiA := make([]float64, nA)
	phiB := make([]float64, len(pos)-nA)
	Pairwise(pos[:nA], q[:nA], phiA, pos[nA:], q[nA:], phiB)
	Within(pos[:nA], q[:nA], phiA)
	Within(pos[nA:], q[nA:], phiB)
	want := Potentials(pos, q)
	for i := 0; i < nA; i++ {
		if math.Abs(phiA[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("A mismatch at %d", i)
		}
	}
	for i := nA; i < len(pos); i++ {
		if math.Abs(phiB[i-nA]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("B mismatch at %d", i)
		}
	}
}

func TestChargeNeutralFarField(t *testing.T) {
	// A dipole's far potential decays like 1/r^2: sanity check that the
	// physics conventions here behave as expected (used by accuracy tests
	// downstream).
	pos := []geom.Vec3{{X: 0.01}, {X: -0.01}}
	q := []float64{1, -1}
	near := PotentialAt(geom.Vec3{X: 1}, pos, q)
	far := PotentialAt(geom.Vec3{X: 2}, pos, q)
	ratio := near / far
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("dipole decay ratio = %g, want ~4", ratio)
	}
}
