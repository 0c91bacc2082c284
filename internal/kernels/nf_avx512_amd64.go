package kernels

// Go-side bindings of the AVX-512 pair kernels (nf_avx512_amd64.s). The
// assembly takes every source itself, the last 1-7 under a lane mask, so
// there is no scalar tail and no split here; it is skipped when either side
// is empty, so no empty slice is ever dereferenced.

//go:noescape
func pairPotSoAAVX512(xs, ys, zs, qs, phi *float64, cnt int, sx, sy, sz, sq, sphi *float64, scnt int)

//go:noescape
func pairFusedSoAAVX512(xs, ys, zs, qs, phi, gx, gy, gz *float64, cnt int, sx, sy, sz, sq, sphi, sgx, sgy, sgz *float64, scnt int)

//go:noescape
func pairPotRowsAVX512(x, y, z, q, phi *float64, calls *boxCall, ncalls int)

//go:noescape
func pairPotOwnAVX512(x, y, z, q, phi *float64, calls *boxCall, ncalls int)

//go:noescape
func pairFusedRowsAVX512(x, y, z, q, phi, gx, gy, gz *float64, calls *boxCall, ncalls int)

//go:noescape
func pairFusedOwnAVX512(x, y, z, q, phi, gx, gy, gz *float64, calls *boxCall, ncalls int)

// rsqrt14 returns the host's VRSQRT14PD of x: the seed the avx512 kernels
// refine, which the order pins transcribe from.
func rsqrt14(x float64) float64

// bindAVX512 rebinds the two pair kernels, their job walks and the two
// inner-series kernels over the avx2 bindings; the one-sided kernels keep
// their avx2 bodies.
func bindAVX512() {
	pairJobAVX512 = true
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

// pairPotCallsAVX512 and pairFusedCallsAVX512 hand a batch of a job's
// per-box calls to the assembly walk (job.go). A batch holds a non-empty
// call, so the planes are not empty.
func pairPotCallsAVX512(p *NearPlanes, calls []boxCall, own bool) {
	if own {
		pairPotOwnAVX512(&p.X[0], &p.Y[0], &p.Z[0], &p.Q[0], &p.Phi[0], &calls[0], len(calls))
		return
	}
	pairPotRowsAVX512(&p.X[0], &p.Y[0], &p.Z[0], &p.Q[0], &p.Phi[0], &calls[0], len(calls))
}

func pairFusedCallsAVX512(p *NearPlanes, calls []boxCall, own bool) {
	if own {
		pairFusedOwnAVX512(&p.X[0], &p.Y[0], &p.Z[0], &p.Q[0], &p.Phi[0], &p.GX[0], &p.GY[0], &p.GZ[0], &calls[0], len(calls))
		return
	}
	pairFusedRowsAVX512(&p.X[0], &p.Y[0], &p.Z[0], &p.Q[0], &p.Phi[0], &p.GX[0], &p.GY[0], &p.GZ[0], &calls[0], len(calls))
}
