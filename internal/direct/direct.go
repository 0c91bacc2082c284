// Package direct implements O(N^2) direct evaluation of Newtonian/Coulombic
// potentials and accelerations. It serves three roles in the reproduction:
// the accuracy ground truth against which the hierarchical solvers are
// measured, the near-field kernel of the O(N) method (step 5 of the generic
// hierarchical algorithm), and the trivial baseline in the Table 1
// comparison.
//
// The potential convention is phi(x) = sum_j q_j / |x - y_j| and the
// acceleration of a unit-mass particle is a(x) = -grad phi for charges, or
// equivalently the gravitational field with G = 1 and attractive sign
// handled by the caller's choice of charge signs.
package direct

import (
	"math"

	"nbody/internal/geom"
	"nbody/internal/kernels"
	"nbody/internal/sched"
)

// Potentials returns phi[i] = sum_{j != i} q[j] / |pos[i]-pos[j]|, computed
// serially with the naive double loop. It is the reference implementation;
// everything else in the package must agree with it. Coincident particle
// pairs (zero distance) are treated like self-interactions and skipped, so
// degenerate inputs yield finite potentials instead of Inf/NaN.
func Potentials(pos []geom.Vec3, q []float64) []float64 {
	phi := make([]float64, len(pos))
	for i := range pos {
		var s float64
		for j := range pos {
			if i == j {
				continue
			}
			if r := pos[i].Dist(pos[j]); r > 0 {
				s += q[j] / r
			}
		}
		phi[i] = s
	}
	return phi
}

// pairTile is the blocking factor of the tiled O(N^2) sweeps: a tile of
// positions plus charges is 256 * (24 + 8) = 8 KB, so the j-tile stays L1
// resident while a whole i-block streams against it.
const pairTile = 256

// PotentialsParallel computes Potentials with rows distributed over the
// available cores. The row decomposition writes disjoint phi entries, so no
// synchronization is needed.
func PotentialsParallel(pos []geom.Vec3, q []float64) []float64 {
	phi := make([]float64, len(pos))
	sched.Run(len(pos), func(i int) {
		var s float64
		pi := pos[i]
		for j := range pos {
			if i == j {
				continue
			}
			if r := pi.Dist(pos[j]); r > 0 {
				s += q[j] / r
			}
		}
		phi[i] = s
	})
	return phi
}

// Accelerations returns a[i] = sum_{j != i} q[j] (y_j - x_i) / |y_j - x_i|^3,
// the field -grad phi for the 1/r potential (attractive for positive q,
// i.e. the gravitational convention with masses as charges).
func Accelerations(pos []geom.Vec3, q []float64) []geom.Vec3 {
	acc := make([]geom.Vec3, len(pos))
	n := len(pos)
	nb := (n + pairTile - 1) / pairTile
	// i-blocks are distributed over the pool (disjoint acc rows, no
	// synchronization); each block sweeps the sources one j-tile at a time
	// so the tile stays cache resident across the block's rows. The
	// self-exclusion branch only runs inside the diagonal tile.
	sched.Run(nb, func(bi int) {
		ib := bi * pairTile
		ie := ib + pairTile
		if ie > n {
			ie = n
		}
		for jb := 0; jb < n; jb += pairTile {
			je := jb + pairTile
			if je > n {
				je = n
			}
			for i := ib; i < ie; i++ {
				pi := pos[i]
				a := acc[i]
				if i >= jb && i < je {
					for j := jb; j < je; j++ {
						if i == j {
							continue
						}
						d := pos[j].Sub(pi)
						r2 := d.Norm2()
						if r2 == 0 {
							continue // coincident particles: self-exclusion, not Inf
						}
						inv := 1 / (r2 * math.Sqrt(r2))
						a = a.Add(d.Scale(q[j] * inv))
					}
				} else {
					for j := jb; j < je; j++ {
						d := pos[j].Sub(pi)
						r2 := d.Norm2()
						if r2 == 0 {
							continue
						}
						inv := 1 / (r2 * math.Sqrt(r2))
						a = a.Add(d.Scale(q[j] * inv))
					}
				}
				acc[i] = a
			}
		}
	})
	return acc
}

// PotentialAt returns the potential at an arbitrary point x due to all
// particles (no self-exclusion). Used for field probes and for evaluating
// outer approximations' ground truth.
func PotentialAt(x geom.Vec3, pos []geom.Vec3, q []float64) float64 {
	var s float64
	for j := range pos {
		s += q[j] / x.Dist(pos[j])
	}
	return s
}

// Pairwise computes the mutual interaction between two disjoint particle
// sets, accumulating potentials on both sides (the box-box near-field
// kernel with Newton's third law, Figure 10). The two slices must not
// alias. The inner loop lives in internal/kernels, shared with the
// hierarchical solvers' near fields.
func Pairwise(posA []geom.Vec3, qA, phiA []float64, posB []geom.Vec3, qB, phiB []float64) {
	kernels.Pairwise(posA, qA, phiA, posB, qB, phiB)
}

// Within accumulates the interactions among the particles of one set into
// phi (the intra-box term of the near field).
func Within(pos []geom.Vec3, q, phi []float64) {
	kernels.Within(pos, q, phi)
}

// FlopsPerPair is the conventional floating-point operation count charged
// per particle-particle interaction in the N-body literature (distance,
// inverse square root, accumulate); the paper's efficiency bookkeeping for
// the direct part uses the same convention.
const FlopsPerPair = 9
