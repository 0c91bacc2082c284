package kernels

import (
	"nbody/internal/geom"
	"nbody/internal/simd"
)

// This file is the backend seam of the particle kernels. Six kernels route
// through the seams below, and applyBackend rebinds them when internal/simd
// switches backends:
//
//   - PairwisePotentialSoA and PairwiseFusedSoA, the symmetric pair kernels:
//     every near field of the repository — the shared-memory solver's row
//     rounds and the data-parallel solver's traveling walk, intra-box pairs
//     included — evaluates each pair once through one of these two.
//   - AccumulatePotentialSoA, the one-sided potential: both 3-D solvers'
//     particle -> outer sphere operation (core.LeafOuter, the sphere points
//     as targets), and the frozen benchmark probes.
//   - InnerPotentialSoA and InnerFusedSoA, the inner series of inner.go:
//     both 3-D solvers' inner sphere -> particle operation (core.EvalLocal).
//   - AccumulateForce, the one-sided AoS field, which only the frozen probes
//     time.
//
// The symmetric within-box kernel WithinPotentialSoA stays scalar (only the
// benchmark probes call it): the solvers take a box's own pairs through the
// pair kernels, particle j against j+1..cnt.
//
// Reduction orders (the per-backend reproducibility contract):
//
//   - Lanes never share a sum in the three leaf kernels. AccumulatePotentialSoA
//     puts targets in lanes (four, the last 0-3 targets through the scalar
//     loop) and InnerPotentialSoA / InnerFusedSoA put particles in lanes
//     (four on avx2, eight on avx512, the last group under a lane mask). Each
//     lane does the scalar body's arithmetic in the scalar body's order —
//     the one-sided r2 unfused, then VSQRTPD and VDIVPD; the inner series'
//     fused steps where the scalar body calls math.FMA — so these three give
//     the scalar body's bits on every backend. The pins are
//     inner_test.go's order tests.
//   - scalar: per target particle, source terms accumulate one at a time,
//     ascending j, exactly as written in kernels.go / soa.go.
//   - avx2 (pair kernels and AccumulateForce): sources are processed in
//     groups of four; within a group the four lanes hold j, j+1, j+2, j+3,
//     lane partial sums combine as (l0+l2) + (l1+l3), the remaining 0-3
//     sources are added by the scalar tail, and multiply-accumulates fuse
//     (FMA). The coincident-particle guard is a compare mask that forces
//     dead lanes to +0 before they reach an accumulator, so r == 0 sources
//     contribute exactly nothing, same as the scalar `continue`.
//   - avx512 (the two pair kernels; AccumulateForce and
//     AccumulatePotentialSoA keep their avx2 bodies): groups of eight, lane l
//     holding j ≡ l (mod 8) from the call's first source, the last 1-7
//     sources one more group under a lane mask (no scalar tail), lanes
//     combined as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), fused as in avx2.
//     inv is a VRSQRT14PD seed and two Newton steps (nf_avx512_amd64.s),
//     zeroed on lanes whose r2 is ±0 or +Inf.
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
// the pair kernels and AccumulateForce differ by rounding only, bounded by
// kernels_simd_test.go and the solver-level differential suite. The avx512
// seed is the CPU's own approximation, so avx512 pair-kernel bits are
// pinned per CPU, and across CPUs they agree to that same bound.
var (
	accumulateForceImpl func(posA, accA, posB []geom.Vec3, qB []float64)                                     = accumulateForceScalar
	pairPotSoAImpl      func(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi []float64)                            = pairPotSoAScalar
	pairFusedSoAImpl    func(xs, ys, zs, qs, phi, gx, gy, gz, sx, sy, sz, sq, sphi, sgx, sgy, sgz []float64) = pairFusedSoAScalar
)

var (
	innerPotSoAImpl   innerPotBody   = innerPotSoAScalar
	innerFusedSoAImpl innerFusedBody = innerFusedSoAScalar
)

// accumPotSoAVector selects AccumulatePotentialSoA's vector body. That one
// seam is a flag tested by a direct call, not a function value: its solver
// caller, core.LeafOuter, hands it the sphere points in arrays on its own
// stack, and the arguments of a call through a function value escape to
// the heap — an allocation per box.
var accumPotSoAVector bool

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
	accumPotSoAVector = false
	pairPotSoAImpl = pairPotSoAScalar
	pairFusedSoAImpl = pairFusedSoAScalar
	innerPotSoAImpl = innerPotSoAScalar
	innerFusedSoAImpl = innerFusedSoAScalar
}
