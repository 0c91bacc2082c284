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
	"nbody/internal/kernels"
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

// LeafOuter samples the potential of one box's particles (positions xs, ys,
// zs, charges qs) at the points of its outer sphere (center, radius a) into
// out[0..K): the particle -> outer sphere operation of step 1. The sphere
// points are the targets of the one-sided kernel, up to leafChunk at a time
// from arrays on the stack; each target's sum is the kernel's alone, so the
// chunking does not move a bit.
func LeafOuter(rule *sphere.Rule, center geom.Vec3, a float64, xs, ys, zs, qs, out []float64) {
	var px, py, pz [leafChunk]float64
	for lo := 0; lo < len(rule.Points); lo += leafChunk {
		pts := rule.Points[lo:min(lo+leafChunk, len(rule.Points))]
		for i, si := range pts {
			p := center.Add(si.Scale(a))
			px[i], py[i], pz[i] = p.X, p.Y, p.Z
		}
		o := out[lo : lo+len(pts)]
		clear(o)
		kernels.AccumulatePotentialSoA(px[:len(pts)], py[:len(pts)], pz[:len(pts)], o, xs, ys, zs, qs)
	}
}

// leafChunk is how many sphere points LeafOuter hands the kernel at once.
const leafChunk = 64

// EvalLocal evaluates one box's inner sphere approximation (center, radius
// a, values g, truncation m) at its particles xs, ys, zs, writing phi and,
// unless gx is nil, the gradient into gx, gy, gz: the inner sphere ->
// particle operation of step 4. It is the series of innerKernel summed over
// the rule, taken by the solid-harmonic recurrence in (x - center)/a of
// kernels.InnerPotentialSoA, which needs no square root and no divide, and
// whose gradient needs no branch at the centre or at u = ±1.
func EvalLocal(rule *sphere.Rule, m int, center geom.Vec3, a float64, g, xs, ys, zs, phi, gx, gy, gz []float64) {
	if gx == nil {
		kernels.InnerPotentialSoA(rule.Points, rule.W, g, m, center, a, xs, ys, zs, phi)
		return
	}
	kernels.InnerFusedSoA(rule.Points, rule.W, g, m, center, a, xs, ys, zs, phi, gx, gy, gz)
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
