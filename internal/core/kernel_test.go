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
		got := evalInner(rule, m, geom.Vec3{}, a, g, x)
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
	got := evalInner(rule, 2, geom.Vec3{X: 1, Y: 2, Z: 3}, 0.5, g, geom.Vec3{X: 1, Y: 2, Z: 3})
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

// refGrad is EvalLocal's force path written term by term from
// sphere.LegendrePDeriv, in the kernel's operation order: the recurrence
// the kernel carries inline must give these bits.
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
// central difference of the potential and its bits to refGrad's, at random
// targets and on the rays through the centre of rule points (both sides),
// where u = s_i . x^ is exactly +1 or -1 and P'_n takes its endpoint limit.
// There the P'_n term is multiplied by s_i - u x^, a rounding error, so
// only the bitwise comparison sees its sign.
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
		for _, x := range targets {
			val, grad := evalGrad(rule, m, c, a, g, x)
			if rv, rg := refGrad(rule, m, c, a, g, x); val != rv || grad != rg {
				t.Errorf("m=%d at %v: EvalLocal (%v, %v), term by term (%v, %v)", m, x, val, grad, rv, rg)
			}
			if want := evalInner(rule, m, c, a, g, x); math.Abs(val-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("m=%d: value mismatch: %g vs %g", m, val, want)
			}
			fd := geom.Vec3{
				X: (evalInner(rule, m, c, a, g, x.Add(geom.Vec3{X: h})) - evalInner(rule, m, c, a, g, x.Sub(geom.Vec3{X: h}))) / (2 * h),
				Y: (evalInner(rule, m, c, a, g, x.Add(geom.Vec3{Y: h})) - evalInner(rule, m, c, a, g, x.Sub(geom.Vec3{Y: h}))) / (2 * h),
				Z: (evalInner(rule, m, c, a, g, x.Add(geom.Vec3{Z: h})) - evalInner(rule, m, c, a, g, x.Sub(geom.Vec3{Z: h}))) / (2 * h),
			}
			if grad.Sub(fd).Norm() > 1e-5*(1+fd.Norm()) {
				t.Errorf("m=%d: grad %v vs FD %v at %v", m, grad, fd, x)
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
