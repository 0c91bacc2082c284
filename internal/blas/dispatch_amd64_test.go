package blas

import (
	"reflect"
	"testing"

	"nbody/internal/simd"
)

// TestApplierBindsVectorBodies holds applyBackend to the bodies each vector
// backend documents (dispatch.go): avx512 keeps avx2's but the slab kernel.
// A backend the applier does not know binds scalar, which every bound test
// would still pass.
func TestApplierBindsVectorBodies(t *testing.T) {
	ptr := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	seams := func() [5]uintptr {
		return [5]uintptr{ptr(gemmK12Impl), ptr(gemmK72Impl), ptr(gemmImpl), ptr(gemvImpl), ptr(rowsTImpl)}
	}
	want := map[string][5]uintptr{
		simd.AVX2:   {ptr(gemmK12Vec), ptr(gemmK72Vec), ptr(gemmVec), ptr(gemvVec), ptr(rowsTVec)},
		simd.AVX512: {ptr(gemmK12Vec), ptr(gemmK72Vec), ptr(gemmVec), ptr(gemvVec), ptr(rowsTVec512)},
	}
	for _, be := range simd.Supported() {
		if be == simd.Scalar {
			continue
		}
		withBackend(t, be, func() {
			if got := seams(); got != want[be] {
				t.Errorf("%s binds %#x, want %#x (gemmK12, gemmK72, gemm, gemv, rowsT)", be, got, want[be])
			}
		})
	}
}
