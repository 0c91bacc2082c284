package kernels

import (
	"reflect"
	"testing"

	"nbody/internal/simd"
)

// TestApplierBindsVectorBodies holds applyBackend to the bodies each vector
// backend documents (dispatch.go): a backend the applier does not know binds
// scalar, which every bound test would still pass.
func TestApplierBindsVectorBodies(t *testing.T) {
	ptr := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	seams := func() [4]uintptr {
		return [4]uintptr{ptr(accumulateForceImpl), ptr(accumPotSoAImpl), ptr(pairPotSoAImpl), ptr(pairFusedSoAImpl)}
	}
	want := map[string][4]uintptr{
		simd.AVX2:   {ptr(accumulateForceVec), ptr(accumPotSoAVec), ptr(pairPotSoAVec), ptr(pairFusedSoAVec)},
		simd.AVX512: {ptr(accumulateForceVec), ptr(accumPotSoAVec), ptr(pairPotSoAVec512), ptr(pairFusedSoAVec512)},
	}
	for _, be := range simd.Supported() {
		if be == simd.Scalar {
			continue
		}
		withBackend(t, be, func() {
			if got := seams(); got != want[be] {
				t.Errorf("%s binds %#x, want %#x (accumulateForce, accumPotSoA, pairPotSoA, pairFusedSoA)", be, got, want[be])
			}
		})
	}
}
