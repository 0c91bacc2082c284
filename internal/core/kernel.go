// Package core implements Anderson's hierarchical O(N) N-body method — the
// "fast multipole method without multipoles" (Anderson, SIAM J. Sci. Comput.
// 1992) — as described in Section 2 of Hu & Johnsson SC'96. The
// computational elements are outer and inner *sphere approximations*: a
// harmonic field is represented by its values g_i at the K integration
// points of a sphere rule, and evaluated elsewhere by a discretized Poisson
// integral whose kernel is a truncated Legendre series:
//
//	outer (field exterior to the sphere, eq. (2) of the paper):
//	    Psi(x) ~ sum_i w_i g_i sum_{n=0..M} (2n+1) (a/r)^(n+1) P_n(s_i . x^)
//	inner (field interior to the sphere, eq. (3), interior Poisson form):
//	    Psi(x) ~ sum_i w_i g_i sum_{n=0..M} (2n+1) (r/a)^n     P_n(s_i . x^)
//
// where r = |x - center| and x^ is the unit vector toward x. All three
// translation operators (T1: child outer -> parent outer; T2: outer ->
// inner; T3: parent inner -> child inner) are evaluations of these kernels
// at the destination sphere's integration points, which is what makes them
// representable as K x K matrices (Section 3.3.3).
package core

import (
	"nbody/internal/geom"
	"nbody/internal/sphere"
)

// outerKernel returns sum_{n=0..M} (2n+1) (a/r)^(n+1) P_n(u) with u the
// cosine between the integration direction and the evaluation direction.
// It requires r > 0; the caller guarantees evaluation strictly outside the
// sphere for the truncated series to be a convergent approximation.
func outerKernel(m int, a, r, u float64) float64 {
	rho := a / r
	pm1, p := 1.0, u
	// n = 0 term: 1 * rho * P_0.
	s := rho
	pow := rho
	for n := 1; n <= m; n++ {
		pow *= rho
		s += float64(2*n+1) * pow * p
		pm1, p = p, (float64(2*n+1)*u*p-float64(n)*pm1)/float64(n+1)
	}
	return s
}

// innerKernel returns sum_{n=0..M} (2n+1) (r/a)^n P_n(u).
func innerKernel(m int, a, r, u float64) float64 {
	rho := r / a
	pm1, p := 1.0, u
	s := 1.0
	pow := 1.0
	for n := 1; n <= m; n++ {
		pow *= rho
		s += float64(2*n+1) * pow * p
		pm1, p = p, (float64(2*n+1)*u*p-float64(n)*pm1)/float64(n+1)
	}
	return s
}

// EvalOuter evaluates an outer sphere approximation (center, radius a,
// values g at the points of rule, truncation m) at the point x, which must
// lie strictly outside the sphere.
func EvalOuter(rule *sphere.Rule, m int, center geom.Vec3, a float64, g []float64, x geom.Vec3) float64 {
	d := x.Sub(center)
	r := d.Norm()
	xh := d.Scale(1 / r)
	var s float64
	for i, si := range rule.Points {
		s += rule.W[i] * g[i] * outerKernel(m, a, r, si.Dot(xh))
	}
	return s
}

// evalInner evaluates an inner sphere approximation at a point x inside the
// sphere. At the exact center only the n = 0 term survives (the mean of g).
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

// LeafOuter samples the potential of one box's particles (positions xs, ys,
// zs, charges qs) at the points of its outer sphere (center, radius a) into
// out[0..K): the particle -> outer sphere operation of step 1.
func LeafOuter(rule *sphere.Rule, center geom.Vec3, a float64, xs, ys, zs, qs, out []float64) {
	for i, si := range rule.Points {
		p := center.Add(si.Scale(a))
		var v float64
		for j := range xs {
			d := geom.Vec3{X: p.X - xs[j], Y: p.Y - ys[j], Z: p.Z - zs[j]}
			v += qs[j] / d.Norm()
		}
		out[i] = v
	}
}

// EvalLocal evaluates one box's inner sphere approximation (center, radius
// a, values g, truncation m) at its particles xs, ys, zs, writing phi and,
// unless gx is nil, the gradient into gx, gy, gz: the inner sphere ->
// particle operation of step 4. The gradient is
//
//	grad Psi = sum_i w_i g_i sum_n (2n+1)/a^n *
//	           [ n r^(n-1) P_n(u) x^ + r^(n-1) P'_n(u) (s_i - u x^) ]
//
// with u = s_i . x^. Both bracketed terms carry r^(n-1), so the n >= 1
// series is finite as r -> 0; at r = 0 only n = 1 survives, giving
// grad Psi = (3/a) sum_i w_i g_i s_i. P_n and P'_n come from the three-term
// recurrence carried inline, P'_n = n (u P_n - P_(n-1)) / (u^2 - 1), and its
// limit (+-1)^(n+1) n(n+1)/2 at u = +-1.
func EvalLocal(rule *sphere.Rule, m int, center geom.Vec3, a float64, g, xs, ys, zs, phi, gx, gy, gz []float64) {
	for j := range xs {
		x := geom.Vec3{X: xs[j], Y: ys[j], Z: zs[j]}
		if gx == nil {
			phi[j] = evalInner(rule, m, center, a, g, x)
			continue
		}
		d := x.Sub(center)
		r := d.Norm()
		var val float64
		var grad geom.Vec3
		if r < 1e-300 {
			for i, si := range rule.Points {
				wg := rule.W[i] * g[i]
				val += wg
				if m >= 1 {
					grad = grad.Add(si.Scale(3 * wg / a))
				}
			}
		} else {
			xh := d.Scale(1 / r)
			rho := r / a
			for i, si := range rule.Points {
				u := min(max(si.Dot(xh), -1), 1)
				end, den := u == 1 || u == -1, u*u-1
				wg := rule.W[i] * g[i]
				// n = 0 term contributes only to the value.
				val += wg
				radial := 0.0    // sum_n (2n+1) n (r/a)^n P_n(u) / r
				angular := 0.0   // sum_n (2n+1) (r/a)^n P'_n(u) / r
				powOverA := 1.0  // (r/a)^n
				pm1, p := 1.0, u // P_(n-1), P_n
				for n := 1; n <= m; n++ {
					if n > 1 {
						pm1, p = p, (float64(2*n-1)*u*p-float64(n-1)*pm1)/float64(n)
					}
					powOverA *= rho
					c := float64(2*n+1) * powOverA
					var dp float64
					switch {
					case !end:
						dp = float64(n) * (u*p - pm1) / den
					case u < 0 && n%2 == 0:
						dp = -float64(n) * float64(n+1) / 2
					default:
						dp = float64(n) * float64(n+1) / 2
					}
					val += wg * c * p
					radial += c * float64(n) * p / r
					angular += c * dp / r
				}
				grad = grad.Add(xh.Scale(wg * radial))
				grad = grad.Add(si.Sub(xh.Scale(u)).Scale(wg * angular))
			}
		}
		phi[j], gx[j], gy[j], gz[j] = val, grad.X, grad.Y, grad.Z
	}
}

// EvalLocalFlops is the nominal cost EvalLocal is charged for n particles
// of boxes with a K-point rule truncated at m: FlopsKernel per kernel term,
// twice that when the gradient is formed too.
func EvalLocalFlops(n, k, m int, force bool) int64 {
	f := int64(n) * int64(k) * int64(m+1) * FlopsKernel
	if force {
		f *= 2
	}
	return f
}

// FlopsKernel is the nominal floating-point cost charged per kernel term,
// used by the analytic flop accounting (one multiply-add for the power, one
// for the recurrence step, one for the accumulate — the same 6-flop/term
// convention either way).
const FlopsKernel = 6

// Sqrt3Over2 is the circumscribed-sphere radius of a unit cube (side 1).
const Sqrt3Over2 = 0.8660254037844386
