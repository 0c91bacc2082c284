package bh

import (
	"math"
	"math/rand"
	"testing"

	"nbody/internal/direct"
	"nbody/internal/geom"
)

func unitBox() geom.Box3 {
	return geom.Box3{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}
}

func randomSystem(rng *rand.Rand, n int) ([]geom.Vec3, []float64) {
	pos := make([]geom.Vec3, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		q[i] = rng.Float64()
	}
	return pos, q
}

func relErr(got, want []float64) float64 {
	var rms, mean float64
	for i := range got {
		d := got[i] - want[i]
		rms += d * d
		mean += math.Abs(want[i])
	}
	return math.Sqrt(rms/float64(len(got))) / (mean / float64(len(got)))
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(unitBox(), make([]geom.Vec3, 2), make([]float64, 1), Config{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Build(unitBox(), []geom.Vec3{{X: 5}}, []float64{1}, Config{}); err == nil {
		t.Error("out-of-box particle accepted")
	}
}

func TestSmallSystemsExact(t *testing.T) {
	// With theta tiny, BH degenerates to the direct sum.
	rng := rand.New(rand.NewSource(61))
	pos, q := randomSystem(rng, 100)
	tr, err := Build(unitBox(), pos, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	phi, _ := tr.Potentials(Config{Theta: 1e-9})
	want := direct.Potentials(pos, q)
	for i := range phi {
		if math.Abs(phi[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("theta->0 mismatch at %d: %g vs %g", i, phi[i], want[i])
		}
	}
}

func TestMonopoleAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pos, q := randomSystem(rng, 3000)
	tr, err := Build(unitBox(), pos, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	phi, st := tr.Potentials(Config{Theta: 0.5})
	want := direct.PotentialsParallel(pos, q)
	if e := relErr(phi, want); e > 2e-3 {
		t.Errorf("monopole theta=0.5 error %.2e", e)
	}
	if st.CellInteractions == 0 || st.ParticleInteractions == 0 {
		t.Error("no traversal statistics")
	}
}

func TestQuadrupoleBeatsMonopole(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pos, q := randomSystem(rng, 3000)
	tr, err := Build(unitBox(), pos, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(pos, q)
	mono, _ := tr.Potentials(Config{Theta: 0.7})
	quad, _ := tr.Potentials(Config{Theta: 0.7, Quadrupole: true})
	em, eq := relErr(mono, want), relErr(quad, want)
	if eq >= em {
		t.Errorf("quadrupole (%.2e) does not beat monopole (%.2e)", eq, em)
	}
}

func TestThetaTradeoff(t *testing.T) {
	// Smaller theta: more work, more accuracy.
	rng := rand.New(rand.NewSource(64))
	pos, q := randomSystem(rng, 2000)
	tr, err := Build(unitBox(), pos, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(pos, q)
	philo, stlo := tr.Potentials(Config{Theta: 0.9, Quadrupole: true})
	phihi, sthi := tr.Potentials(Config{Theta: 0.4, Quadrupole: true})
	if relErr(phihi, want) >= relErr(philo, want) {
		t.Errorf("theta=0.4 error %.2e not better than theta=0.9 %.2e",
			relErr(phihi, want), relErr(philo, want))
	}
	if sthi.TotalFlops() <= stlo.TotalFlops() {
		t.Errorf("theta=0.4 flops %d not larger than theta=0.9 %d",
			sthi.TotalFlops(), stlo.TotalFlops())
	}
}

func TestTreeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	pos, q := randomSystem(rng, 1000)
	tr, err := Build(unitBox(), pos, q, Config{LeafCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.nodes) < 1000/4 {
		t.Errorf("suspiciously few nodes: %d", len(tr.nodes))
	}
	d := tr.MaxDepth()
	if d < 2 || d > 20 {
		t.Errorf("depth = %d for 1000 uniform particles", d)
	}
}

func TestPotentialAtPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	pos, q := randomSystem(rng, 500)
	tr, err := Build(unitBox(), pos, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := geom.Vec3{X: 3, Y: 3, Z: 3} // far outside: monopole should nail it
	var cells, parts int64
	got := tr.potentialAt(x, -1, Config{Theta: 0.5, Quadrupole: true}.normalize(), &cells, &parts)
	want := direct.PotentialAt(x, pos, q)
	if math.Abs(got-want)/want > 1e-4 {
		t.Errorf("far point: %g vs %g", got, want)
	}
}

func TestSingleAndEmptyCells(t *testing.T) {
	// Two particles: root has two single-particle leaves; everything must
	// still work.
	pos := []geom.Vec3{{X: 0.1, Y: 0.1, Z: 0.1}, {X: 0.9, Y: 0.9, Z: 0.9}}
	q := []float64{1, 2}
	tr, err := Build(unitBox(), pos, q, Config{LeafCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	phi, _ := tr.Potentials(Config{Theta: 0.1})
	want := direct.Potentials(pos, q)
	for i := range phi {
		if math.Abs(phi[i]-want[i]) > 1e-12 {
			t.Errorf("phi[%d] = %g, want %g", i, phi[i], want[i])
		}
	}
}

func TestChargeNeutralCells(t *testing.T) {
	// Exactly cancelling charges in a cell: total q = 0, com falls back to
	// the geometric center, and the quadrupole still carries information.
	pos := []geom.Vec3{
		{X: 0.24, Y: 0.25, Z: 0.25}, {X: 0.26, Y: 0.25, Z: 0.25},
		{X: 0.75, Y: 0.75, Z: 0.75},
	}
	q := []float64{1, -1, 1}
	tr, err := Build(unitBox(), pos, q, Config{LeafCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	phi, _ := tr.Potentials(Config{Theta: 0.3, Quadrupole: true})
	want := direct.Potentials(pos, q)
	for i := range phi {
		if math.Abs(phi[i]-want[i]) > 0.05*(1+math.Abs(want[i])) {
			t.Errorf("phi[%d] = %g, want %g", i, phi[i], want[i])
		}
	}
}

func TestClusteredDistribution(t *testing.T) {
	// BH is adaptive: a tight cluster plus sparse background must work and
	// produce a deep tree.
	rng := rand.New(rand.NewSource(67))
	var pos []geom.Vec3
	var q []float64
	for i := 0; i < 500; i++ {
		pos = append(pos, geom.Vec3{
			X: 0.5 + 1e-3*rng.NormFloat64(),
			Y: 0.5 + 1e-3*rng.NormFloat64(),
			Z: 0.5 + 1e-3*rng.NormFloat64(),
		})
		q = append(q, 1)
	}
	for i := 0; i < 100; i++ {
		pos = append(pos, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		q = append(q, 1)
	}
	tr, err := Build(unitBox(), pos, q, Config{LeafCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxDepth() < 6 {
		t.Errorf("cluster should force a deep tree, got depth %d", tr.MaxDepth())
	}
	phi, _ := tr.Potentials(Config{Theta: 0.4, Quadrupole: true})
	want := direct.PotentialsParallel(pos, q)
	if e := relErr(phi, want); e > 1e-2 {
		t.Errorf("clustered error %.2e", e)
	}
}
