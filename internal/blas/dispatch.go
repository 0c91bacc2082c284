package blas

import "nbody/internal/simd"

// This file is the backend seam of the BLAS layer: every public kernel
// (Dgemm, DgemmRowsT and its single-vector case DgemvT) routes its inner
// loops through one of the function pointers below, and applyBackend
// rebinds them when internal/simd switches backends. The scalar bindings are the portable
// fallback and the only ones on non-amd64 builds; the AVX2 bindings live in
// gemm_avx2_amd64.go and serve the avx512 backend too, except that avx512
// rebinds the slab kernel (rows_avx512_amd64.go): for K = 12 it runs a zmm
// body that groups boxes across row ends, in avx2's order, so T1, T2 and T3
// give the same bits on both backends.
//
// Reduction orders (the per-backend bitwise-reproducibility contract):
//
//   - scalar: k-terms grouped in fours, each group summed left to right,
//     groups accumulated ascending k (gemm_stream.go; pinned by
//     TestDgemmGroupedOrderExact).
//   - avx2: one fused-multiply-add chain per C element, ascending k —
//     s = fma(a[i,k], b[k,j], s) — identical in every lane and block size
//     (pinned by TestDgemmFMAOrderExact against a math.FMA transcription).
//   - avx512: avx2's bodies and order; the K = 12 slab body keeps it too,
//     since an FMA rounds once whatever the vector width (pinned by
//     TestDgemmRowsTOrderExact against the same transcription).
//
// Within one backend repeated calls are bitwise identical; across backends
// results differ by rounding only, bounded by the cross-backend matrix in
// gemm_kernels_test.go and the solver-level differential suite.
var (
	gemmK12Impl func(m, n int, a, b, c []float64)                            = gemmK12
	gemmK72Impl func(m, n int, a, b, c []float64)                            = gemmK72
	gemmImpl    func(m, k, n int, a, b, c []float64)                         = gemm4k
	rowsTImpl   func(k, n, rows int, ss, ds Strides, tt, src, dst []float64) = rowsTScalar
)

func init() { simd.Register(applyBackend) }

// applyBackend rebinds the kernel seams for the named backend. Unknown
// names bind scalar: simd validates names, so the only way here with one is
// a future backend this package predates, and the portable stream is the
// correct degradation.
func applyBackend(name string) {
	switch {
	case name == simd.AVX2 && haveAVX2:
		bindAVX2()
	case name == simd.AVX512 && haveAVX2:
		bindAVX2()
		bindAVX512()
	default:
		bindScalar()
	}
}

func bindScalar() {
	gemmK12Impl = gemmK12
	gemmK72Impl = gemmK72
	gemmImpl = gemm4k
	rowsTImpl = rowsTScalar
}
