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
	seams := func() [4]uintptr {
		return [4]uintptr{ptr(gemmK12Impl), ptr(gemmK72Impl), ptr(gemmImpl), ptr(rowsTImpl)}
	}
	want := map[string][4]uintptr{
		simd.AVX2:   {ptr(gemmK12Vec), ptr(gemmK72Vec), ptr(gemmVec), ptr(rowsTVec)},
		simd.AVX512: {ptr(gemmK12Vec), ptr(gemmK72Vec), ptr(gemmVec), ptr(rowsTVec512)},
	}
	for _, be := range simd.Supported() {
		if be == simd.Scalar {
			continue
		}
		withBackend(t, be, func() {
			if got := seams(); got != want[be] {
				t.Errorf("%s binds %#x, want %#x (gemmK12, gemmK72, gemm, rowsT)", be, got, want[be])
			}
		})
	}
}
