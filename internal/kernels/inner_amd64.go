package kernels

import "nbody/internal/geom"

// Go-side bindings of the inner-series kernels (inner_avx2_amd64.s,
// inner_avx512_amd64.s). The assembly takes every particle itself, the last
// group under a lane mask, so there is no scalar tail here. The reslices check the operands' lengths the way the scalar bodies' indexing
// does. cf is passed whole: the bodies start at its step 1. (The values
// are vals, not g: in amd64 assembly g names a register.)

//go:noescape
func innerPotAVX2(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi *float64, cnt int)

//go:noescape
func innerFusedAVX2(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi, gx, gy, gz *float64, cnt int)

//go:noescape
func innerPotAVX512(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi *float64, cnt int)

//go:noescape
func innerFusedAVX512(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi, gx, gy, gz *float64, cnt int)

// innerPotAsm and innerFusedAsm are the assembly bodies' signatures: the
// rule's k points, weights and values, the recurrence's steps, the centre,
// 1/a and the box's cnt particles.
type (
	innerPotAsm   func(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi *float64, cnt int)
	innerFusedAsm func(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi, gx, gy, gz *float64, cnt int)
)

func innerPotSoAVec(pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi []float64) {
	innerPot(innerPotAVX2, pts, w, g, cf, c, ia, xs, ys, zs, phi)
}

func innerFusedSoAVec(pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi, gx, gy, gz []float64) {
	innerFused(innerFusedAVX2, pts, w, g, cf, c, ia, xs, ys, zs, phi, gx, gy, gz)
}

func innerPotSoAVec512(pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi []float64) {
	innerPot(innerPotAVX512, pts, w, g, cf, c, ia, xs, ys, zs, phi)
}

func innerFusedSoAVec512(pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi, gx, gy, gz []float64) {
	innerFused(innerFusedAVX512, pts, w, g, cf, c, ia, xs, ys, zs, phi, gx, gy, gz)
}

// innerPot runs body on a box; an empty box or rule (no pointer to take)
// goes to the scalar body, which writes the same zeros.
func innerPot(body innerPotAsm, pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi []float64) {
	cnt, k := len(xs), len(pts)
	if cnt == 0 || k == 0 {
		innerPotSoAScalar(pts, w, g, cf, c, ia, xs, ys, zs, phi)
		return
	}
	w, g, ys, zs, phi = w[:k], g[:k], ys[:cnt], zs[:cnt], phi[:cnt]
	body(&pts[0], &w[0], &g[0], k, &cf[0], len(cf), c.X, c.Y, c.Z, ia, &xs[0], &ys[0], &zs[0], &phi[0], cnt)
}

func innerFused(body innerFusedAsm, pts []geom.Vec3, w, g []float64, cf []innerCoef, c geom.Vec3, ia float64, xs, ys, zs, phi, gx, gy, gz []float64) {
	cnt, k := len(xs), len(pts)
	if cnt == 0 || k == 0 {
		innerFusedSoAScalar(pts, w, g, cf, c, ia, xs, ys, zs, phi, gx, gy, gz)
		return
	}
	w, g, ys, zs = w[:k], g[:k], ys[:cnt], zs[:cnt]
	phi, gx, gy, gz = phi[:cnt], gx[:cnt], gy[:cnt], gz[:cnt]
	body(&pts[0], &w[0], &g[0], k, &cf[0], len(cf), c.X, c.Y, c.Z, ia, &xs[0], &ys[0], &zs[0], &phi[0], &gx[0], &gy[0], &gz[0], cnt)
}
