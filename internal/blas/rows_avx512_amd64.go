package blas

// Go-side binding of the AVX-512 slab kernel (rows_avx512_amd64.s). The
// avx512 backend keeps every avx2 binding but the slab kernel, whose K = 12
// body groups boxes across row ends; any other K runs avx2's body.

//go:noescape
func rowsTK12AVX512(n, rows, srcBox, srcRow, dstBox, dstRow int, tt, src, dst *float64)

func bindAVX512() { rowsTImpl = rowsTVec512 }

func rowsTVec512(k, n, rows int, ss, ds Strides, tt, src, dst []float64) {
	if k != 12 {
		rowsTVec(k, n, rows, ss, ds, tt, src, dst)
		return
	}
	rowsTK12AVX512(n, rows, ss.Box, ss.Row, ds.Box, ds.Row, &tt[0], &src[0], &dst[0])
}
