package kernels

import (
	"math"

	"nbody/internal/geom"
)

// The inner-series kernels evaluate one box's inner sphere approximation at
// the box's particles: the inner sphere -> particle operation of both 3-D
// solvers (core.EvalLocal). The approximation is the rule's K points s_i
// and weights w_i, the values g_i on the sphere of radius a around c, and
// the truncation m >= 1 of the series
//
//	Psi(x) = sum_i w_i g_i sum_{n=0..m} (2n+1) Q_n,   Q_n = rho^n P_n(t/rho),
//
// in the scaled offset e = (x - c)/a, with t = s_i . e and rho^2 = e . e.
// Q_n is a polynomial in t and rho^2, given by the solid-harmonic form of
// the Legendre recurrence,
//
//	Q_0 = 1,  Q_1 = t,  Q_(n+1) = c1_n t Q_n - c2_n rho^2 Q_(n-1),
//	c1_n = (2n+1)/(n+1),  c2_n = n/(n+1),
//
// so the kernels take no square root and no divide, and need no branch at
// the centre or on the rays through the rule's points. The gradient is
// grad Q_n = (alpha_n s_i + beta_n e)/a with alpha_n = dQ_n/dt and
// beta_n = 2 dQ_n/d(rho^2), which the same recurrence differentiated gives:
//
//	alpha_(n+1) = c1_n Q_n + c1_n t alpha_n - c2_n rho^2 alpha_(n-1),
//	beta_(n+1)  = c1_n t beta_n - (2 c2_n Q_(n-1) + c2_n rho^2 beta_(n-1)),
//
// from alpha_0 = beta_0 = beta_1 = 0 and alpha_1 = 1. Per particle the sums
// run over i ascending, and per point over n ascending; the scalar bodies
// below state every rounding (math.FMA where an operation is fused). The
// vector bodies put particles in lanes and do exactly this arithmetic in
// this order in each lane, so they give the scalar bodies' bits
// (dispatch.go).

// InnerPotentialSoA writes to phi[j] the inner sphere approximation (pts,
// w, g, m, c, a) at particle j of xs, ys, zs. Backend-dispatched
// (dispatch.go).
func InnerPotentialSoA(pts []geom.Vec3, w, g []float64, m int, c geom.Vec3, a float64, xs, ys, zs, phi []float64) {
	innerPotSoAImpl(pts, w, g, innerCoefs(m), c, 1/a, xs, ys, zs, phi)
}

// InnerFusedSoA is InnerPotentialSoA that also writes the gradient of the
// approximation into gx, gy, gz. Its phi is InnerPotentialSoA's, bit for
// bit. Backend-dispatched (dispatch.go).
func InnerFusedSoA(pts []geom.Vec3, w, g []float64, m int, c geom.Vec3, a float64, xs, ys, zs, phi, gx, gy, gz []float64) {
	innerFusedSoAImpl(pts, w, g, innerCoefs(m), c, 1/a, xs, ys, zs, phi, gx, gy, gz)
}

// innerPotBody and innerFusedBody are the inner-series seams: the kernels
// with the recurrence's steps cf and 1/a resolved.
type (
	innerPotBody   func(pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi []float64)
	innerFusedBody func(pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi, gx, gy, gz []float64)
)

// innerCoef is step n of the recurrence, Q_n -> Q_(n+1): c1 and c2 as
// above, d = 2 c2 for the gradient, and k = 2n+3, the weight of Q_(n+1) in
// the series. The vector bodies read it as four doubles, in this order.
type innerCoef struct{ c1, c2, d, k float64 }

// innerCoefTab holds the steps every preset's truncation uses, shared
// read-only by every caller.
var innerCoefTab = newInnerCoefs(64)

// innerCoefs returns steps 0..m-1; step 0 (Q_0 -> Q_1) is never read, the
// bodies start from Q_1 = t. A truncation beyond the table gets a table of
// its own per call.
func innerCoefs(m int) []innerCoef {
	if m < 1 {
		panic("kernels: inner series truncated below m = 1")
	}
	if m <= len(innerCoefTab) {
		return innerCoefTab[:m]
	}
	return newInnerCoefs(m)
}

func newInnerCoefs(m int) []innerCoef {
	tab := make([]innerCoef, m)
	for n := range tab {
		f := float64(n)
		c2 := f / (f + 1)
		tab[n] = innerCoef{c1: (2*f + 1) / (f + 1), c2: c2, d: 2 * c2, k: 2*f + 3}
	}
	return tab
}

func innerPotSoAScalar(pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi []float64) {
	for j := range xs {
		ex, ey, ez := (xs[j]-c.X)*ia, (ys[j]-c.Y)*ia, (zs[j]-c.Z)*ia
		rho2 := math.FMA(ez, ez, math.FMA(ey, ey, ex*ex))
		var v float64
		for i, s := range pts {
			t := math.FMA(s.Z, ez, math.FMA(s.Y, ey, s.X*ex))
			q0, q1, sq := 1.0, t, math.FMA(3, t, 1)
			for _, k := range cf[1:] {
				q0, q1 = q1, math.FMA(k.c1*t, q1, -(k.c2*rho2*q0))
				sq = math.FMA(k.k, q1, sq)
			}
			v = math.FMA(w[i]*g[i], sq, v)
		}
		phi[j] = v
	}
}

func innerFusedSoAScalar(pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi, gx, gy, gz []float64) {
	for j := range xs {
		ex, ey, ez := (xs[j]-c.X)*ia, (ys[j]-c.Y)*ia, (zs[j]-c.Z)*ia
		rho2 := math.FMA(ez, ez, math.FMA(ey, ey, ex*ex))
		var v, fx, fy, fz, fb float64
		for i, s := range pts {
			t := math.FMA(s.Z, ez, math.FMA(s.Y, ey, s.X*ex))
			q0, q1, sq := 1.0, t, math.FMA(3, t, 1)
			a0, a1, sa := 0.0, 1.0, 3.0
			b0, b1, sb := 0.0, 0.0, 0.0
			for _, k := range cf[1:] {
				u, r := k.c1*t, k.c2*rho2
				qn := math.FMA(u, q1, -(r * q0))
				an := math.FMA(k.c1, q1, math.FMA(u, a1, -(r*a0)))
				bn := math.FMA(u, b1, -math.FMA(k.d, q0, r*b0))
				q0, q1, a0, a1, b0, b1 = q1, qn, a1, an, b1, bn
				sq = math.FMA(k.k, qn, sq)
				sa = math.FMA(k.k, an, sa)
				sb = math.FMA(k.k, bn, sb)
			}
			wg := w[i] * g[i]
			v = math.FMA(wg, sq, v)
			wa := wg * sa
			fx = math.FMA(wa, s.X, fx)
			fy = math.FMA(wa, s.Y, fy)
			fz = math.FMA(wa, s.Z, fz)
			fb = math.FMA(wg, sb, fb)
		}
		phi[j] = v
		gx[j] = math.FMA(fb, ex, fx) * ia
		gy[j] = math.FMA(fb, ey, fy) * ia
		gz[j] = math.FMA(fb, ez, fz) * ia
	}
}
