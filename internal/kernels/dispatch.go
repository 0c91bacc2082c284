package kernels

import (
	"nbody/internal/geom"
	"nbody/internal/simd"
)

// This file is the backend seam of the near-field layer. Four kernels route
// through the function pointers below, and applyBackend rebinds them when
// internal/simd switches backends:
//
//   - PairwisePotentialSoA and PairwiseFusedSoA, the symmetric pair kernels:
//     every near field of the repository — the shared-memory solver's row
//     rounds and the data-parallel solver's traveling walk, intra-box pairs
//     included — evaluates each pair once through one of these two.
//   - AccumulatePotentialSoA and the AoS AccumulateForce, one-sided kernels
//     that no solver calls; the frozen benchmark probes time them.
//
// The symmetric within-box kernel WithinPotentialSoA stays scalar (only the
// benchmark probes call it): the solvers take a box's own pairs through the
// pair kernels, particle j against j+1..cnt.
//
// Reduction orders (the per-backend reproducibility contract):
//
//   - scalar: per target particle, source terms accumulate one at a time,
//     ascending j, exactly as written in kernels.go / soa.go.
//   - avx2: sources are processed in groups of four; within a group the
//     four lanes hold j, j+1, j+2, j+3, lane partial sums combine as
//     (l0+l2) + (l1+l3), the remaining 0-3 sources are added by the scalar
//     tail, and multiply-accumulates fuse (FMA). The coincident-particle
//     guard is a compare mask that forces dead lanes to +0 before they
//     reach an accumulator, so r == 0 sources contribute exactly nothing,
//     same as the scalar `continue`.
//   - avx512 (the two pair kernels only; the one-sided kernels keep their
//     avx2 bodies): groups of eight, lane l holding j ≡ l (mod 8) from the
//     call's first source, the last 1-7 sources one more group under a lane
//     mask (no scalar tail), lanes combined as
//     ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), fused as in avx2. inv is a
//     VRSQRT14PD seed and two Newton steps (nf_avx512_amd64.s), zeroed on
//     lanes whose r2 is ±0 or +Inf.
//
// PairwiseFusedSoA follows the same orders for each of the target's four
// sums (potential and three field components), accumulated from zero and
// added to the outputs once per target; a source's four accumulators take
// their deposits in place, one per target, ascending i, on every backend.
// Its vector bodies add the potential terms q*inv unfused and fuse only the
// field updates f += w*d; the mask lands on inv itself, right after the
// divide (or the Newton steps), so a dead lane's Inf never meets a multiply
// (0*Inf is NaN).
//
// Within one backend repeated calls are bitwise identical; across backends
// results differ by rounding only, bounded by kernels_simd_test.go and the
// solver-level differential suite. The avx512 seed is the CPU's own
// approximation, so avx512 bits are pinned per CPU, and across CPUs they
// agree to that same bound.
var (
	accumulateForceImpl func(posA, accA, posB []geom.Vec3, qB []float64)                                     = accumulateForceScalar
	accumPotSoAImpl     func(xs, ys, zs, phi, sx, sy, sz, sq []float64)                                      = accumPotSoAScalar
	pairPotSoAImpl      func(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi []float64)                            = pairPotSoAScalar
	pairFusedSoAImpl    func(xs, ys, zs, qs, phi, gx, gy, gz, sx, sy, sz, sq, sphi, sgx, sgy, sgz []float64) = pairFusedSoAScalar
)

func init() { simd.Register(applyBackend) }

// applyBackend rebinds the kernel seams for the named backend; unknown
// names degrade to the portable scalar loops (see the blas twin for why).
func applyBackend(name string) {
	switch {
	case name == simd.AVX2 && haveAVX2:
		bindAVX2()
	case name == simd.AVX512 && haveAVX2:
		bindAVX2()
		bindAVX512()
	default:
		bindScalar()
	}
}

func bindScalar() {
	accumulateForceImpl = accumulateForceScalar
	accumPotSoAImpl = accumPotSoAScalar
	pairPotSoAImpl = pairPotSoAScalar
	pairFusedSoAImpl = pairFusedSoAScalar
}
