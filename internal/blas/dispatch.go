package blas

import "nbody/internal/simd"

// This file is the backend seam of the BLAS layer: every public kernel
// (Dgemm, Dgemv, DgemmRowsT) routes its inner loops through
// one of the function pointers below, and applyBackend rebinds them when
// internal/simd switches backends. The scalar bindings are the portable
// fallback and the only ones on non-amd64 builds; the AVX2 bindings live in
// gemm_avx2_amd64.go and serve the avx512 backend too, which vectorizes only
// the near-field pair kernels (internal/kernels).
//
// Reduction orders (the per-backend bitwise-reproducibility contract):
//
//   - scalar: k-terms grouped in fours, each group summed left to right,
//     groups accumulated ascending k (gemm_stream.go; pinned by
//     TestDgemmGroupedOrderExact).
//   - avx2: one fused-multiply-add chain per C element, ascending k —
//     s = fma(a[i,k], b[k,j], s) — identical in every lane and block size
//     (pinned by TestDgemmFMAOrderExact against a math.FMA transcription).
//
// Within one backend repeated calls are bitwise identical; across backends
// results differ by rounding only, bounded by the cross-backend matrix in
// gemm_kernels_test.go and the solver-level differential suite.
var (
	gemmK12Impl func(m, n int, a, b, c []float64)                            = gemmK12
	gemmK72Impl func(m, n int, a, b, c []float64)                            = gemmK72
	gemmImpl    func(m, k, n int, a, b, c []float64)                         = gemm4k
	gemvImpl    func(rows, cols int, a, x, y []float64)                      = gemvScalar
	rowsTImpl   func(k, n, srcStride, dstStride int, tt, src, dst []float64) = rowsTScalar
)

func init() { simd.Register(applyBackend) }

// applyBackend rebinds the kernel seams for the named backend. Unknown
// names bind scalar: simd validates names, so the only way here with one is
// a future backend this package predates, and the portable stream is the
// correct degradation.
func applyBackend(name string) {
	if (name == simd.AVX2 || name == simd.AVX512) && haveAVX2 {
		bindAVX2()
		return
	}
	bindScalar()
}

func bindScalar() {
	gemmK12Impl = gemmK12
	gemmK72Impl = gemmK72
	gemmImpl = gemm4k
	gemvImpl = gemvScalar
	rowsTImpl = rowsTScalar
}

// gemvScalar is the portable Dgemv inner loop: each row's dot product is
// accumulated left to right into one scalar.
func gemvScalar(rows, cols int, a, x, y []float64) {
	for i := 0; i < rows; i++ {
		row := a[i*cols : (i+1)*cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] += s
	}
}
