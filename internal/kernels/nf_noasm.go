//go:build !amd64

package kernels

// Portable builds carry no vector kernels: internal/simd never reports the
// avx2 or avx512 backend as supported off amd64, so the binders (and the
// seed the avx512 order pins read) are unreachable and the scalar loops
// remain the only binding.
const haveAVX2 = false

func bindAVX2()   {}
func bindAVX512() {}

func rsqrt14(float64) float64 { panic("kernels: no VRSQRT14PD off amd64") }

func accumPotSoAVec(xs, ys, zs, phi, sx, sy, sz, sq []float64) {
	panic("kernels: no vector AccumulatePotentialSoA off amd64")
}
