// Package kernels holds the particle-particle inner kernels of the near
// field, shared by every solver in the repository: the O(N^2) reference
// (package direct), the shared-memory O(N) solver's near sweep, the
// data-parallel FMM's traveling near-field walk, and the 2-D logarithmic
// solver. Each kernel is the innermost double loop over a pair of particle
// sets with the common `r == 0` coincidence guard (self-exclusion semantics:
// coincident particles contribute nothing instead of Inf/NaN). The two leaf
// operations of the 3-D solvers run here too: the one-sided potential with
// sphere points as targets, and the inner series of inner.go.
//
// The kernels come in three layouts matching their callers' storage:
//
//   - AoS ([]geom.Vec3 positions): used by package direct.
//   - SoA (parallel xs/ys/zs float64 slices): used by the data-parallel
//     FMM, whose particle grids store coordinates as separate planes, and
//     by the shared-memory solver, whose box-sorted mirrors do too.
//   - 2-D logarithmic (geom.Vec2, -q ln r potential): used by core2.
//
// Bitwise reproducibility contract: the differential tests compare solver
// outputs to tight tolerances (~4e-15 between dpfmm and core), so every
// kernel here preserves the exact loop order, accumulation order, and
// operand sign conventions of the call site it was extracted from. Do not
// "simplify" dx = xs[i]-sx[j] into its negation, reorder accumulations, or
// fuse the reciprocal differently.
package kernels

import (
	"math"

	"nbody/internal/geom"
)

// Pairwise computes the mutual interaction between two disjoint particle
// sets, accumulating potentials on both sides (the box-box near-field
// kernel with Newton's third law). The two sets must not alias.
func Pairwise(posA []geom.Vec3, qA, phiA []float64, posB []geom.Vec3, qB, phiB []float64) {
	for i := range posA {
		pi := posA[i]
		qi := qA[i]
		var s float64
		for j := range posB {
			r := pi.Dist(posB[j])
			if r == 0 {
				continue // coincident particles: self-exclusion, not Inf
			}
			inv := 1 / r
			s += qB[j] * inv
			phiB[j] += qi * inv
		}
		phiA[i] += s
	}
}

// Within accumulates the interactions among the particles of one set into
// phi (the intra-box term of the near field), visiting each pair once.
func Within(pos []geom.Vec3, q, phi []float64) {
	for i := range pos {
		pi := pos[i]
		qi := q[i]
		for j := i + 1; j < len(pos); j++ {
			r := pi.Dist(pos[j])
			if r == 0 {
				continue // coincident particles: self-exclusion, not Inf
			}
			inv := 1 / r
			phi[i] += q[j] * inv
			phi[j] += qi * inv
		}
	}
}

// AccumulateForce adds to accA the field induced at posA by the source set,
// with the (y-x)/r^3 convention. Backend-dispatched (dispatch.go). No solver
// calls it any more (force solves take PairwiseFusedSoA); it stays because
// bench/probes.go times it as kernels.accumulate_force_minter_s and bench/
// is frozen — retiring that probe retires this kernel.
func AccumulateForce(posA []geom.Vec3, accA []geom.Vec3, posB []geom.Vec3, qB []float64) {
	accumulateForceImpl(posA, accA, posB, qB)
}

func accumulateForceScalar(posA, accA, posB []geom.Vec3, qB []float64) {
	for i := range posA {
		pi := posA[i]
		a := accA[i]
		for j := range posB {
			d := posB[j].Sub(pi)
			r2 := d.Norm2()
			if r2 == 0 {
				continue // coincident particles: self-exclusion, not Inf
			}
			inv := 1 / (r2 * math.Sqrt(r2))
			a = a.Add(d.Scale(qB[j] * inv))
		}
		accA[i] = a
	}
}
