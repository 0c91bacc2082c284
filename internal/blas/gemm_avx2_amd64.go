package blas

// Go-side bindings of the AVX2/FMA assembly kernels (gemm_avx2_amd64.s).
// The stubs take base pointers, not slices: every caller has already
// validated shapes and non-emptiness in the exported entry points, and
// //go:noescape keeps the operands off the heap.

//go:noescape
func dgemmAVX2(m, k, n int, a, b, c *float64)

//go:noescape
func gemmK12AVX2(m, n int, a, b, c *float64)

//go:noescape
func gemmK72AVX2(m, n int, a, b, c *float64)

//go:noescape
func dgemvAVX2(rows, cols int, a, x, y *float64)

//go:noescape
func rowsTAVX2(k, n, srcStride, dstStride int, tt, src, dst *float64)

// haveAVX2 reports that this build carries the AVX2 kernels; whether the
// host can run them is internal/simd's call (dispatch.go consults both).
const haveAVX2 = true

func bindAVX2() {
	gemmK12Impl = gemmK12Vec
	gemmK72Impl = gemmK72Vec
	gemmImpl = gemmVec
	gemvImpl = gemvVec
	rowsTImpl = rowsTVec
}

func gemmK12Vec(m, n int, a, b, c []float64)    { gemmK12AVX2(m, n, &a[0], &b[0], &c[0]) }
func gemmK72Vec(m, n int, a, b, c []float64)    { gemmK72AVX2(m, n, &a[0], &b[0], &c[0]) }
func gemmVec(m, k, n int, a, b, c []float64)    { dgemmAVX2(m, k, n, &a[0], &b[0], &c[0]) }
func gemvVec(rows, cols int, a, x, y []float64) { dgemvAVX2(rows, cols, &a[0], &x[0], &y[0]) }

func rowsTVec(k, n, srcStride, dstStride int, tt, src, dst []float64) {
	rowsTAVX2(k, n, srcStride, dstStride, &tt[0], &src[0], &dst[0])
}
