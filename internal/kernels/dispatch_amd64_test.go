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
	seams := func() [5]uintptr {
		return [5]uintptr{ptr(accumulateForceImpl), ptr(pairPotSoAImpl), ptr(pairFusedSoAImpl), ptr(innerPotSoAImpl), ptr(innerFusedSoAImpl)}
	}
	want := map[string][5]uintptr{
		simd.AVX2:   {ptr(accumulateForceVec), ptr(pairPotSoAVec), ptr(pairFusedSoAVec), ptr(innerPotSoAVec), ptr(innerFusedSoAVec)},
		simd.AVX512: {ptr(accumulateForceVec), ptr(pairPotSoAVec512), ptr(pairFusedSoAVec512), ptr(innerPotSoAVec512), ptr(innerFusedSoAVec512)},
	}
	for _, be := range simd.Supported() {
		if be == simd.Scalar {
			continue
		}
		withBackend(t, be, func() {
			if got := seams(); got != want[be] {
				t.Errorf("%s binds %#x, want %#x (accumulateForce, pairPotSoA, pairFusedSoA, innerPotSoA, innerFusedSoA)", be, got, want[be])
			}
			if !accumPotSoAVector {
				t.Errorf("%s leaves AccumulatePotentialSoA on its scalar body", be)
			}
			if pairJobAVX512 != (be == simd.AVX512) {
				t.Errorf("%s sets the job entries' assembly walk to %v", be, pairJobAVX512)
			}
		})
	}
}
