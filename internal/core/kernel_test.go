package core

import (
	"math"
	"math/rand"
	"testing"

	"nbody/internal/geom"
	"nbody/internal/sphere"
)

// makeOuter builds the outer approximation of a set of charges inside the
// sphere by directly sampling their potential at the sphere points — the
// leaf-level construction of the method (step 1).
func makeOuter(rule *sphere.Rule, center geom.Vec3, a float64, pos []geom.Vec3, q []float64) []float64 {
	g := make([]float64, rule.K())
	for i, s := range rule.Points {
		p := center.Add(s.Scale(a))
		var v float64
		for j := range pos {
			v += q[j] / p.Dist(pos[j])
		}
		g[i] = v
	}
	return g
}

func truePotential(x geom.Vec3, pos []geom.Vec3, q []float64) float64 {
	var v float64
	for j := range pos {
		v += q[j] / x.Dist(pos[j])
	}
	return v
}

// evalInner is the trig-form oracle of the inner series: innerKernel in r
// and u = s_i . x^, summed over the rule — the square root and the divide
// that EvalLocal's recurrence does without. At the exact centre only the
// n = 0 term survives (the mean of g).
func evalInner(rule *sphere.Rule, m int, center geom.Vec3, a float64, g []float64, x geom.Vec3) float64 {
	d := x.Sub(center)
	r := d.Norm()
	if r == 0 {
		var s float64
		for i := range rule.Points {
			s += rule.W[i] * g[i]
		}
		return s
	}
	xh := d.Scale(1 / r)
	var s float64
	for i, si := range rule.Points {
		s += rule.W[i] * g[i] * innerKernel(m, a, r, si.Dot(xh))
	}
	return s
}

// evalPot is EvalLocal's potential path on a one-point box.
func evalPot(rule *sphere.Rule, m int, c geom.Vec3, a float64, g []float64, x geom.Vec3) float64 {
	var phi [1]float64
	EvalLocal(rule, m, c, a, g, []float64{x.X}, []float64{x.Y}, []float64{x.Z}, phi[:], nil, nil, nil)
	return phi[0]
}

// oracleBound is how far EvalLocal may sit from the trig-form oracle,
// relative to 1 + |oracle|: the two round differently, nothing more.
const oracleBound = 1e-13

func TestOuterKernelReproducesPointChargeFarField(t *testing.T) {
	// Charges in a unit box at the origin, outer sphere of radius ~ box
	// circumradius, evaluation at two-separation distance (3 box sides).
	rng := rand.New(rand.NewSource(41))
	var pos []geom.Vec3
	var q []float64
	for i := 0; i < 20; i++ {
		pos = append(pos, geom.Vec3{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5})
		q = append(q, rng.Float64())
	}
	cases := []struct {
		rule *sphere.Rule
		m    int
		tol  float64
	}{
		{sphere.Icosahedron(), 2, 2e-2},
		{sphere.Product(4, 8), 3, 4e-3},
		{sphere.Product(6, 12), 5, 1e-3},
		{sphere.Product(8, 15), 7, 2e-4},
	}
	for _, c := range cases {
		a := 1.0 // sphere of radius 1 encloses the unit box (circumradius 0.866)
		g := makeOuter(c.rule, geom.Vec3{}, a, pos, q)
		worst := 0.0
		for trial := 0; trial < 50; trial++ {
			dir := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Normalize()
			x := dir.Scale(2.2 + rng.Float64()) // between 2.2 and 3.2 away
			got := EvalOuter(c.rule, c.m, geom.Vec3{}, a, g, x)
			want := truePotential(x, pos, q)
			rel := math.Abs(got-want) / math.Abs(want)
			if rel > worst {
				worst = rel
			}
		}
		if worst > c.tol {
			t.Errorf("%v M=%d: worst relative error %.2e > %.2e", c.rule, c.m, worst, c.tol)
		}
	}
}

func TestOuterErrorDecreasesWithOrder(t *testing.T) {
	// The paper's Table 2 shape: higher integration order D gives faster
	// error decay. Measure the error of the outer approximation at a fixed
	// two-separation distance as D grows; it must be monotone decreasing
	// (up to a generous factor).
	rng := rand.New(rand.NewSource(42))
	var pos []geom.Vec3
	var q []float64
	for i := 0; i < 30; i++ {
		pos = append(pos, geom.Vec3{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5})
		q = append(q, rng.Float64())
	}
	x := geom.Vec3{X: 2.1, Y: 1.3, Z: -1.7}
	want := truePotential(x, pos, q)
	var errs []float64
	for _, d := range []int{3, 5, 9, 13} {
		rule := sphere.ForDegree(d)
		m := rule.DefaultM()
		g := makeOuter(rule, geom.Vec3{}, 1.0, pos, q)
		got := EvalOuter(rule, m, geom.Vec3{}, 1.0, g, x)
		errs = append(errs, math.Abs(got-want)/math.Abs(want))
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1]*1.5 {
			t.Errorf("error not decreasing with order: %v", errs)
		}
	}
	if errs[len(errs)-1] > 5e-4 {
		t.Errorf("highest-order error %.2e too large", errs[len(errs)-1])
	}
}

func TestInnerKernelReproducesFarSourceField(t *testing.T) {
	// Build an inner approximation of the field due to far charges by
	// sampling their true potential at the sphere points, then evaluate
	// inside: this is what T2+T3 ultimately deliver at the leaves.
	rng := rand.New(rand.NewSource(43))
	var pos []geom.Vec3
	var q []float64
	for i := 0; i < 20; i++ {
		dir := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Normalize()
		pos = append(pos, dir.Scale(3+2*rng.Float64()))
		q = append(q, rng.Float64()*2-1)
	}
	rule := sphere.Product(6, 12)
	m := 5
	a := 1.0
	g := make([]float64, rule.K())
	for i, s := range rule.Points {
		g[i] = truePotential(s.Scale(a), pos, q)
	}
	for trial := 0; trial < 50; trial++ {
		x := geom.Vec3{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5}.Scale(1.0)
		got := evalPot(rule, m, geom.Vec3{}, a, g, x)
		want := truePotential(x, pos, q)
		if rel := math.Abs(got-want) / math.Abs(want); rel > 2e-3 {
			t.Errorf("inner eval at %v: rel error %.2e", x, rel)
		}
	}
}

func TestEvalInnerAtCenterIsMean(t *testing.T) {
	rule := sphere.Icosahedron()
	g := make([]float64, rule.K())
	for i := range g {
		g[i] = float64(i)
	}
	got := evalPot(rule, 2, geom.Vec3{X: 1, Y: 2, Z: 3}, 0.5, g, geom.Vec3{X: 1, Y: 2, Z: 3})
	want := 0.0
	for i := range g {
		want += rule.W[i] * g[i]
	}
	if math.Abs(got-want) > 1e-14 {
		t.Errorf("center value %g, want %g", got, want)
	}
}

// evalGrad is EvalLocal's force path on a one-point box.
func evalGrad(rule *sphere.Rule, m int, c geom.Vec3, a float64, g []float64, x geom.Vec3) (float64, geom.Vec3) {
	var phi, gx, gy, gz [1]float64
	EvalLocal(rule, m, c, a, g, []float64{x.X}, []float64{x.Y}, []float64{x.Z}, phi[:], gx[:], gy[:], gz[:])
	return phi[0], geom.Vec3{X: gx[0], Y: gy[0], Z: gz[0]}
}

// refGrad is the trig-form oracle of the gradient, written term by term
// from sphere.LegendrePDeriv:
//
//	grad Psi = sum_i w_i g_i sum_n (2n+1)/a^n *
//	           [ n r^(n-1) P_n(u) x^ + r^(n-1) P'_n(u) (s_i - u x^) ]
//
// with u = s_i . x^ (not defined at the centre).
func refGrad(rule *sphere.Rule, m int, c geom.Vec3, a float64, g []float64, x geom.Vec3) (float64, geom.Vec3) {
	d := x.Sub(c)
	r := d.Norm()
	xh := d.Scale(1 / r)
	var val float64
	var grad geom.Vec3
	for i, si := range rule.Points {
		u := min(max(si.Dot(xh), -1), 1)
		wg := rule.W[i] * g[i]
		val += wg
		radial, angular, pow := 0.0, 0.0, 1.0
		for n := 1; n <= m; n++ {
			pow *= r / a
			cn := float64(2*n+1) * pow
			p, dp := sphere.LegendrePDeriv(n, u)
			val += wg * cn * p
			radial += cn * float64(n) * p / r
			angular += cn * dp / r
		}
		grad = grad.Add(xh.Scale(wg * radial))
		grad = grad.Add(si.Sub(xh.Scale(u)).Scale(wg * angular))
	}
	return val, grad
}

// TestEvalInnerGradMatchesFiniteDifference holds EvalLocal's gradient to a
// central difference of its potential and, within oracleBound, to the
// trig-form oracle refGrad, at random targets and on the rays through the
// centre of rule points (both sides), where u = s_i . x^ is exactly +1 or -1
// and the oracle's P'_n takes its endpoint limit. The potential of the force
// path must be the potential path's bit for bit.
func TestEvalInnerGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c := geom.Vec3{X: 0.2, Y: -0.1, Z: 0.05}
	h := 1e-6
	for _, tc := range []struct {
		rule *sphere.Rule
		m    int
	}{
		{sphere.Product(5, 10), 4},
		{sphere.Product(8, 15), 7},
	} {
		rule, m := tc.rule, tc.m
		a := 1.3
		g := make([]float64, rule.K())
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		var targets []geom.Vec3
		for trial := 0; trial < 20; trial++ {
			targets = append(targets, c.Add(geom.Vec3{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5}.Scale(1.2)))
		}
		var ends [2]int // targets at u = -1 and at u = +1
		for _, si := range rule.Points {
			for _, tr := range []float64{-0.7, -0.45, 0.45, 0.7} {
				x := c.Add(si.Scale(tr))
				d := x.Sub(c)
				switch u := si.Dot(d.Scale(1 / d.Norm())); {
				case u <= -1:
					ends[0]++
				case u >= 1:
					ends[1]++
				default:
					continue
				}
				targets = append(targets, x)
			}
		}
		if ends[0] == 0 || ends[1] == 0 {
			t.Fatalf("m=%d: %d targets at u = -1 and %d at u = +1, want some of each", m, ends[0], ends[1])
		}
		pot := func(x geom.Vec3) float64 { return evalPot(rule, m, c, a, g, x) }
		for _, x := range targets {
			val, grad := evalGrad(rule, m, c, a, g, x)
			if p := pot(x); val != p {
				t.Fatalf("m=%d at %v: force path potential %v, potential path %v", m, x, val, p)
			}
			rv, rg := refGrad(rule, m, c, a, g, x)
			if math.Abs(val-rv) > oracleBound*(1+math.Abs(rv)) || grad.Sub(rg).Norm() > oracleBound*(1+rg.Norm()) {
				t.Errorf("m=%d at %v: EvalLocal (%v, %v), oracle (%v, %v)", m, x, val, grad, rv, rg)
			}
			fd := geom.Vec3{
				X: (pot(x.Add(geom.Vec3{X: h})) - pot(x.Sub(geom.Vec3{X: h}))) / (2 * h),
				Y: (pot(x.Add(geom.Vec3{Y: h})) - pot(x.Sub(geom.Vec3{Y: h}))) / (2 * h),
				Z: (pot(x.Add(geom.Vec3{Z: h})) - pot(x.Sub(geom.Vec3{Z: h}))) / (2 * h),
			}
			if grad.Sub(fd).Norm() > 1e-5*(1+fd.Norm()) {
				t.Errorf("m=%d: grad %v vs FD %v at %v", m, grad, fd, x)
			}
		}
	}
}

// TestEvalLocalMatchesTrigOracle holds EvalLocal's potential to the
// trig-form oracle within oracleBound at every truncation 1-7 and at one
// beyond the kernels' shared coefficient table (66), on the default K = 12
// rule and a K = 72 product rule, at random points of the box, at its
// centre and on rays through rule points (u = ±1).
func TestEvalLocalMatchesTrigOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := geom.Vec3{X: -0.3, Y: 0.6, Z: 0.1}
	a := 1.1
	for _, rule := range []*sphere.Rule{sphere.Icosahedron(), sphere.Product(6, 12)} {
		g := make([]float64, rule.K())
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		targets := []geom.Vec3{c, c.Add(rule.Points[0].Scale(0.5)), c.Add(rule.Points[1].Scale(-0.8))}
		for trial := 0; trial < 40; trial++ {
			targets = append(targets, c.Add(geom.Vec3{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5}))
		}
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 66} {
			for _, x := range targets {
				got, want := evalPot(rule, m, c, a, g, x), evalInner(rule, m, c, a, g, x)
				if math.Abs(got-want) > oracleBound*(1+math.Abs(want)) {
					t.Errorf("K=%d m=%d at %v: EvalLocal %v, oracle %v", rule.K(), m, x, got, want)
				}
			}
		}
	}
}

func TestEvalInnerGradAtCenter(t *testing.T) {
	rule := sphere.Icosahedron()
	rng := rand.New(rand.NewSource(45))
	g := make([]float64, rule.K())
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	a := 0.7
	c := geom.Vec3{}
	_, grad := evalGrad(rule, 2, c, a, g, c)
	// Compare with the limit from a tiny offset.
	_, gradEps := evalGrad(rule, 2, c, a, g, geom.Vec3{X: 1e-9})
	if grad.Sub(gradEps).Norm() > 1e-6*(1+grad.Norm()) {
		t.Errorf("center grad %v vs limit %v", grad, gradEps)
	}
}

func TestKernelHarmonicity(t *testing.T) {
	// An outer approximation must be (numerically) harmonic outside the
	// sphere: its Laplacian, by 6-point finite difference, should vanish to
	// discretization accuracy.
	rng := rand.New(rand.NewSource(46))
	rule := sphere.Product(4, 8)
	m := 3
	g := make([]float64, rule.K())
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	a := 1.0
	x := geom.Vec3{X: 2, Y: 0.5, Z: -1}
	h := 1e-3
	f := func(p geom.Vec3) float64 { return EvalOuter(rule, m, geom.Vec3{}, a, g, p) }
	lap := (f(x.Add(geom.Vec3{X: h})) + f(x.Sub(geom.Vec3{X: h})) +
		f(x.Add(geom.Vec3{Y: h})) + f(x.Sub(geom.Vec3{Y: h})) +
		f(x.Add(geom.Vec3{Z: h})) + f(x.Sub(geom.Vec3{Z: h})) - 6*f(x)) / (h * h)
	if math.Abs(lap) > 1e-4 {
		t.Errorf("Laplacian of outer approx = %g, want ~0", lap)
	}
}
