package kernels

import "nbody/internal/geom"

// Go-side bindings of the AVX2/FMA near-field kernels (nf_avx2_amd64.s).
// Each pair or force wrapper hands the assembly a source count truncated to
// a multiple of four — the assembly's contract: no masked loads, never
// reads past the truncated count — and feeds the 0-3 leftover sources
// through the scalar kernel on sliced source operands, which appends the
// tail contributions after the vector ones in a fixed order (determinism
// preserved). accumPotSoAVec truncates the targets instead and runs the 0-3
// leftover targets through the scalar kernel, whose arithmetic each lane
// repeats. The assembly is skipped entirely when either side of the
// truncated loop is empty, so no empty slice is ever dereferenced.

//go:noescape
func accumPotSoAAVX2(xs, ys, zs, phi *float64, cnt int, sx, sy, sz, sq *float64, scnt int)

//go:noescape
func pairPotSoAAVX2(xs, ys, zs, qs, phi *float64, cnt int, sx, sy, sz, sq, sphi *float64, scnt int)

//go:noescape
func accumForceAoSAVX2(pa, acc *geom.Vec3, cnt int, pb *geom.Vec3, q *float64, scnt int)

//go:noescape
func pairFusedSoAAVX2(xs, ys, zs, qs, phi, gx, gy, gz *float64, cnt int, sx, sy, sz, sq, sphi, sgx, sgy, sgz *float64, scnt int)

// haveAVX2 reports that this build carries the AVX2 kernels; whether the
// host can run them is internal/simd's call (dispatch.go consults both).
const haveAVX2 = true

func bindAVX2() {
	pairJobAVX512 = false
	accumulateForceImpl = accumulateForceVec
	accumPotSoAVector = true
	pairPotSoAImpl = pairPotSoAVec
	pairFusedSoAImpl = pairFusedSoAVec
	innerPotSoAImpl = innerPotSoAVec
	innerFusedSoAImpl = innerFusedSoAVec
}

func accumulateForceVec(posA, accA, posB []geom.Vec3, qB []float64) {
	cnt, scnt := len(posA), len(posB)
	s4 := scnt &^ 3
	if cnt > 0 && s4 > 0 {
		accumForceAoSAVX2(&posA[0], &accA[0], cnt, &posB[0], &qB[0], s4)
	}
	if s4 < scnt {
		accumulateForceScalar(posA, accA, posB[s4:], qB[s4:])
	}
}

func accumPotSoAVec(xs, ys, zs, phi, sx, sy, sz, sq []float64) {
	cnt, scnt := len(xs), len(sx)
	c4 := cnt &^ 3
	if c4 > 0 && scnt > 0 {
		accumPotSoAAVX2(&xs[0], &ys[0], &zs[0], &phi[0], c4, &sx[0], &sy[0], &sz[0], &sq[0], scnt)
	}
	if c4 < cnt {
		accumPotSoAScalar(xs[c4:], ys[c4:], zs[c4:], phi[c4:], sx, sy, sz, sq)
	}
}

func pairPotSoAVec(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi []float64) {
	cnt, scnt := len(xs), len(sx)
	s4 := scnt &^ 3
	if cnt > 0 && s4 > 0 {
		pairPotSoAAVX2(&xs[0], &ys[0], &zs[0], &qs[0], &phi[0], cnt,
			&sx[0], &sy[0], &sz[0], &sq[0], &sphi[0], s4)
	}
	if s4 < scnt {
		pairPotSoAScalar(xs, ys, zs, qs, phi, sx[s4:], sy[s4:], sz[s4:], sq[s4:], sphi[s4:])
	}
}

func pairFusedSoAVec(xs, ys, zs, qs, phi, gx, gy, gz, sx, sy, sz, sq, sphi, sgx, sgy, sgz []float64) {
	cnt, scnt := len(xs), len(sx)
	s4 := scnt &^ 3
	if cnt > 0 && s4 > 0 {
		pairFusedSoAAVX2(&xs[0], &ys[0], &zs[0], &qs[0], &phi[0], &gx[0], &gy[0], &gz[0], cnt,
			&sx[0], &sy[0], &sz[0], &sq[0], &sphi[0], &sgx[0], &sgy[0], &sgz[0], s4)
	}
	if s4 < scnt {
		pairFusedSoAScalar(xs, ys, zs, qs, phi, gx, gy, gz,
			sx[s4:], sy[s4:], sz[s4:], sq[s4:], sphi[s4:], sgx[s4:], sgy[s4:], sgz[s4:])
	}
}
