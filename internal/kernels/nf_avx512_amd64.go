package kernels

// Go-side bindings of the AVX-512 pair kernels (nf_avx512_amd64.s). The
// assembly takes every source itself, the last 1-7 under a lane mask, so
// there is no scalar tail and no split here; it is skipped when either side
// is empty, so no empty slice is ever dereferenced.

//go:noescape
func pairPotSoAAVX512(xs, ys, zs, qs, phi *float64, cnt int, sx, sy, sz, sq, sphi *float64, scnt int)

//go:noescape
func pairFusedSoAAVX512(xs, ys, zs, qs, phi, gx, gy, gz *float64, cnt int, sx, sy, sz, sq, sphi, sgx, sgy, sgz *float64, scnt int)

// rsqrt14 returns the host's VRSQRT14PD of x: the seed the avx512 kernels
// refine, which the order pins transcribe from.
func rsqrt14(x float64) float64

// bindAVX512 rebinds the two pair kernels and the two inner-series
// kernels over the avx2 bindings; the one-sided kernels keep their avx2
// bodies.
func bindAVX512() {
	pairPotSoAImpl = pairPotSoAVec512
	pairFusedSoAImpl = pairFusedSoAVec512
	innerPotSoAImpl = innerPotSoAVec512
	innerFusedSoAImpl = innerFusedSoAVec512
}

func pairPotSoAVec512(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi []float64) {
	if cnt, scnt := len(xs), len(sx); cnt > 0 && scnt > 0 {
		pairPotSoAAVX512(&xs[0], &ys[0], &zs[0], &qs[0], &phi[0], cnt,
			&sx[0], &sy[0], &sz[0], &sq[0], &sphi[0], scnt)
	}
}

func pairFusedSoAVec512(xs, ys, zs, qs, phi, gx, gy, gz, sx, sy, sz, sq, sphi, sgx, sgy, sgz []float64) {
	if cnt, scnt := len(xs), len(sx); cnt > 0 && scnt > 0 {
		pairFusedSoAAVX512(&xs[0], &ys[0], &zs[0], &qs[0], &phi[0], &gx[0], &gy[0], &gz[0], cnt,
			&sx[0], &sy[0], &sz[0], &sq[0], &sphi[0], &sgx[0], &sgy[0], &sgz[0], scnt)
	}
}
