package kernels

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"nbody/internal/geom"
	"nbody/internal/simd"
	"nbody/internal/sphere"
)

// The order pins of the leaf kernels. Their vector bodies put targets (the
// one-sided potential) or particles (the inner series) in lanes and never
// combine lanes, so the scalar body is their transcription: on every
// backend each output must equal it bit for bit.

// requireBackend skips a pin's subtest for a backend this host cannot run.
func requireBackend(t *testing.T, name string) {
	t.Helper()
	if !slices.Contains(simd.Supported(), name) {
		t.Skipf("backend %s not supported on this host", name)
	}
}

// vectorBackends runs f under each vector backend in its own subtest.
func vectorBackends(t *testing.T, f func(t *testing.T)) {
	for _, be := range []string{simd.AVX2, simd.AVX512} {
		t.Run(be, func(t *testing.T) {
			requireBackend(t, be)
			withBackend(t, be, func() { f(t) })
		})
	}
}

// leafRules are the pins' sphere rules: the K = 12 icosahedron the solvers
// run by default and a K = 72 product rule.
func leafRules() []*sphere.Rule { return []*sphere.Rule{sphere.Icosahedron(), sphere.Product(6, 12)} }

// maxBox is the pins' largest box: every tail length of both widths, twice.
const maxBox = 70

// leafBox draws a box of n particles of side 1 around c, in planes with NaN
// poison in their spare capacity.
func leafBox(rng *rand.Rand, c geom.Vec3, n int) (xs, ys, zs, qs []float64) {
	at := func(c float64) func(int) float64 { return func(int) float64 { return c + rng.Float64() - 0.5 } }
	return poisoned(n, at(c.X)), poisoned(n, at(c.Y)), poisoned(n, at(c.Z)),
		poisoned(n, func(int) float64 { return rng.NormFloat64() })
}

// requireUntouched fails if a kernel wrote past len(s): poisoned leaves
// NaN in the spare capacity.
func requireUntouched(t *testing.T, what string, s []float64) {
	t.Helper()
	for i, v := range s[len(s):cap(s)] {
		if !math.IsNaN(v) {
			t.Fatalf("%s: element %d past the end written (%v)", what, len(s)+i, v)
		}
	}
}

// TestAccumulatePotentialOrderExact pins the one-sided kernel, as
// core.LeafOuter calls it, the K sphere points of a box as targets against
// the box's particles, and on target counts 1-9 for every tail length.
func TestAccumulatePotentialOrderExact(t *testing.T) {
	vectorBackends(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		c := geom.Vec3{X: 0.3, Y: -1.2, Z: 2.5}
		a := 1.1
		var targets [][3][]float64
		for _, rule := range leafRules() {
			var p [3][]float64
			for _, s := range rule.Points {
				q := c.Add(s.Scale(a))
				p[0], p[1], p[2] = append(p[0], q.X), append(p[1], q.Y), append(p[2], q.Z)
			}
			targets = append(targets, p)
		}
		for cnt := 1; cnt <= 9; cnt++ {
			xs, ys, zs, _ := leafBox(rng, c, cnt)
			targets = append(targets, [3][]float64{xs, ys, zs})
		}
		for _, tg := range targets {
			for n := 0; n <= maxBox; n++ {
				sx, sy, sz, sq := leafBox(rng, c, n)
				if n > 2 { // a source on a target: the r2 > 0 guard's dead lane
					sx[n/2], sy[n/2], sz[n/2] = tg[0][0], tg[1][0], tg[2][0]
				}
				cnt := len(tg[0])
				got := poisoned(cnt, func(int) float64 { return rng.NormFloat64() })
				want := slices.Clone(got)
				AccumulatePotentialSoA(tg[0], tg[1], tg[2], got, sx, sy, sz, sq)
				accumPotSoAScalar(tg[0], tg[1], tg[2], want, sx, sy, sz, sq)
				requireSameBits(t, cnt, n, "phi", got, want)
				requireUntouched(t, "phi", got)
			}
		}
	})
}

// innerCase draws one inner-series case: values on the rule's points and a
// box of n particles around the sphere's centre c, radius a.
func innerCase(rng *rand.Rand, rule *sphere.Rule, n int) (g []float64, c geom.Vec3, a float64, xs, ys, zs []float64) {
	g = make([]float64, rule.K())
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	c, a = geom.Vec3{X: -0.7, Y: 0.4, Z: 1.9}, 1.1
	xs, ys, zs, _ = leafBox(rng, c, n)
	if n > 1 { // the centre and a ray through a rule point, where u = ±1
		xs[0], ys[0], zs[0] = c.X, c.Y, c.Z
		r := c.Add(rule.Points[0].Scale(-0.4))
		xs[1], ys[1], zs[1] = r.X, r.Y, r.Z
	}
	return
}

// TestInnerPotentialOrderExact pins the inner series' potential body.
func TestInnerPotentialOrderExact(t *testing.T) {
	vectorBackends(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for _, rule := range leafRules() {
			for m := 1; m <= 7; m++ {
				for n := 0; n <= maxBox; n++ {
					g, c, a, xs, ys, zs := innerCase(rng, rule, n)
					got := poisoned(n, func(int) float64 { return 0 })
					want := make([]float64, n)
					InnerPotentialSoA(rule.Points, rule.W, g, m, c, a, xs, ys, zs, got)
					innerPotSoAScalar(rule.Points, rule.W, g, innerCoefs(m), c, 1/a, xs, ys, zs, want)
					requireSameBits(t, rule.K(), n, "phi", got, want)
					requireUntouched(t, "phi", got)
				}
			}
		}
	})
}

// TestInnerFusedOrderExact pins the inner series' potential-and-gradient
// body, and holds its potential to the potential body's.
func TestInnerFusedOrderExact(t *testing.T) {
	vectorBackends(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for _, rule := range leafRules() {
			for m := 1; m <= 7; m++ {
				for n := 0; n <= maxBox; n++ {
					g, c, a, xs, ys, zs := innerCase(rng, rule, n)
					zero := func(int) float64 { return 0 }
					got := fusedSide{poisoned(n, zero), poisoned(n, zero), poisoned(n, zero), poisoned(n, zero)}
					want := fusedSide{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
					pot := make([]float64, n)
					InnerFusedSoA(rule.Points, rule.W, g, m, c, a, xs, ys, zs, got.phi, got.gx, got.gy, got.gz)
					innerFusedSoAScalar(rule.Points, rule.W, g, innerCoefs(m), c, 1/a, xs, ys, zs, want.phi, want.gx, want.gy, want.gz)
					innerPotSoAScalar(rule.Points, rule.W, g, innerCoefs(m), c, 1/a, xs, ys, zs, pot)
					requireSameBits(t, rule.K(), n, "phi", got.phi, want.phi)
					requireSameBits(t, rule.K(), n, "gx", got.gx, want.gx)
					requireSameBits(t, rule.K(), n, "gy", got.gy, want.gy)
					requireSameBits(t, rule.K(), n, "gz", got.gz, want.gz)
					requireSameBits(t, rule.K(), n, "phi against the potential body", want.phi, pot)
					for _, s := range [][]float64{got.phi, got.gx, got.gy, got.gz} {
						requireUntouched(t, "fused output", s)
					}
				}
			}
		}
	})
}
