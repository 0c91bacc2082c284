package blas

// This file holds the streaming GEMM kernels Dgemm dispatches to: i-k-j
// loops unrolled four deep in k, so the inner loop reads four B rows
// against one C row and retires eight flops per C-element store. On the
// scalar Go backend this shape beat the BLIS-style packed micro-kernel the
// package once carried at every translation size (see EXPERIMENTS.md; the
// packed path was removed once AVX2 did not change the verdict): packing
// passes and 4x4 register tiles pay off only when the register allocator
// can hold the tile, and with sixteen accumulators plus operand temporaries
// the compiler spills, while the k-unrolled stream keeps live values under
// the register budget and every operand access unit-stride. The constant
// trip-count variants for the paper's K = 12 and K = 72 translation shapes
// let the compiler drop the remainder loop and prove away slice bounds
// checks.
//
// The reduction order is fixed and documented: k-terms are grouped in
// fours, each group summed left to right, groups accumulated in ascending
// k. Every kernel here follows it, which is what makes repeated solves on
// reused state bitwise reproducible (and is pinned by TestDgemmGroupedOrderExact).

// gemm4k is the generic k-unrolled streaming kernel: C += A*B.
func gemm4k(m, k, n int, a, b, c []float64) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		kk := 0
		for ; kk+3 < k; kk += 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b0 := b[kk*n : (kk+1)*n]
			b1 := b[(kk+1)*n : (kk+2)*n]
			b2 := b[(kk+2)*n : (kk+3)*n]
			b3 := b[(kk+3)*n : (kk+4)*n]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; kk < k; kk++ {
			a0 := arow[kk]
			b0 := b[kk*n : (kk+1)*n]
			for j := range crow {
				crow[j] += a0 * b0[j]
			}
		}
	}
}

// gemmK12 is gemm4k with the trip count fixed at the icosahedral rule's
// K = 12: three four-row sweeps, no remainder.
func gemmK12(m, n int, a, b, c []float64) {
	b = b[:12*n]
	for i := 0; i < m; i++ {
		arow := a[i*12 : i*12+12 : i*12+12]
		crow := c[i*n : (i+1)*n]
		for kk := 0; kk < 12; kk += 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b0 := b[kk*n : (kk+1)*n]
			b1 := b[(kk+1)*n : (kk+2)*n]
			b2 := b[(kk+2)*n : (kk+3)*n]
			b3 := b[(kk+3)*n : (kk+4)*n]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
	}
}

// gemmK72 is gemm4k with the trip count fixed at the product rule's K = 72.
func gemmK72(m, n int, a, b, c []float64) {
	b = b[:72*n]
	for i := 0; i < m; i++ {
		arow := a[i*72 : i*72+72 : i*72+72]
		crow := c[i*n : (i+1)*n]
		for kk := 0; kk < 72; kk += 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b0 := b[kk*n : (kk+1)*n]
			b1 := b[(kk+1)*n : (kk+2)*n]
			b2 := b[(kk+2)*n : (kk+3)*n]
			b3 := b[(kk+3)*n : (kk+4)*n]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
	}
}
