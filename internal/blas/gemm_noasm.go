//go:build !amd64

package blas

// Portable builds carry no vector kernels: internal/simd never reports the
// vector backends as supported off amd64, so bindAVX2 and bindAVX512 are
// unreachable and the scalar stream remains the only binding.
const haveAVX2 = false

func bindAVX2()   {}
func bindAVX512() {}
