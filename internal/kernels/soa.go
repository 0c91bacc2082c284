package kernels

import "math"

// The SoA kernels operate on per-attribute particle planes — the
// data-parallel FMM's per-box planes, the shared-memory solver's box-sorted
// mirrors: parallel xs/ys/zs coordinate slices already trimmed to the set's
// occupancy (len(xs) is the particle count). Target attributes come first,
// source attributes (sx/sy/sz/sq, and sphi, sgx... for the symmetric
// kernels, which write them) second.

// WithinPotentialSoA accumulates the intra-box potentials symmetrically,
// visiting each unordered pair once. No solver calls it (they take a box's
// own pairs through the pair kernels); bench/probes.go times it as
// kernels.within_soa_minter_s and bench/ is frozen.
func WithinPotentialSoA(xs, ys, zs, qs, phi []float64) {
	cnt := len(xs)
	for i := 0; i < cnt; i++ {
		for j := i + 1; j < cnt; j++ {
			dx, dy, dz := xs[i]-xs[j], ys[i]-ys[j], zs[i]-zs[j]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue // coincident particles: self-exclusion, not Inf
			}
			inv := 1 / math.Sqrt(r2)
			phi[i] += qs[j] * inv
			phi[j] += qs[i] * inv
		}
	}
}

// AccumulatePotentialSoA adds to phi the potentials induced at the target
// set by a source set, one-sided (sources untouched): core.LeafOuter's
// kernel, with a box's sphere points as the targets, and the frozen bench
// probe kernels.accumulate_soa_minter_s. Backend-dispatched (dispatch.go),
// with the same bits on every backend.
func AccumulatePotentialSoA(xs, ys, zs, phi, sx, sy, sz, sq []float64) {
	if accumPotSoAVector {
		accumPotSoAVec(xs, ys, zs, phi, sx, sy, sz, sq)
		return
	}
	accumPotSoAScalar(xs, ys, zs, phi, sx, sy, sz, sq)
}

func accumPotSoAScalar(xs, ys, zs, phi, sx, sy, sz, sq []float64) {
	cnt, scnt := len(xs), len(sx)
	for i := 0; i < cnt; i++ {
		var acc float64
		for j := 0; j < scnt; j++ {
			dx, dy, dz := xs[i]-sx[j], ys[i]-sy[j], zs[i]-sz[j]
			if r2 := dx*dx + dy*dy + dz*dz; r2 > 0 {
				acc += sq[j] / math.Sqrt(r2)
			}
		}
		phi[i] += acc
	}
}

// PairwisePotentialSoA is the symmetric traveling kernel (Figure 10 of the
// paper): each target particle receives the source box's contribution, and
// the reciprocal contribution is deposited into the traveling accumulator
// sphi, to be shifted home by the caller after the walk.
// Backend-dispatched (dispatch.go).
func PairwisePotentialSoA(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi []float64) {
	pairPotSoAImpl(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi)
}

func pairPotSoAScalar(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi []float64) {
	cnt, scnt := len(xs), len(sx)
	for i := 0; i < cnt; i++ {
		var acc float64
		qi := qs[i]
		for j := 0; j < scnt; j++ {
			dx, dy, dz := xs[i]-sx[j], ys[i]-sy[j], zs[i]-sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue // coincident particles: self-exclusion, not Inf
			}
			inv := 1 / math.Sqrt(r2)
			acc += sq[j] * inv
			sphi[j] += qi * inv // reciprocal contribution (Newton's third law)
		}
		phi[i] += acc
	}
}

// PairwiseFusedSoA is the symmetric potential+field kernel: every pair of a
// target and a source particle is evaluated once, from a single
// inv = 1/sqrt(r2), and deposited on both sides (Newton's third law) — the
// target's sums once per target, the sources' phi and field planes in place.
// Field convention (y-x)/r^3, weights as q*inv * (inv*inv). The two sides
// must not overlap. Backend-dispatched (dispatch.go).
func PairwiseFusedSoA(xs, ys, zs, qs, phi, gx, gy, gz, sx, sy, sz, sq, sphi, sgx, sgy, sgz []float64) {
	pairFusedSoAImpl(xs, ys, zs, qs, phi, gx, gy, gz, sx, sy, sz, sq, sphi, sgx, sgy, sgz)
}

func pairFusedSoAScalar(xs, ys, zs, qs, phi, gx, gy, gz, sx, sy, sz, sq, sphi, sgx, sgy, sgz []float64) {
	cnt, scnt := len(xs), len(sx)
	sy, sz, sq = sy[:scnt], sz[:scnt], sq[:scnt]
	sphi, sgx, sgy, sgz = sphi[:scnt], sgx[:scnt], sgy[:scnt], sgz[:scnt]
	for i := 0; i < cnt; i++ {
		xi, yi, zi, qi := xs[i], ys[i], zs[i], qs[i]
		var p, fx, fy, fz float64
		for j := 0; j < scnt; j++ {
			dx, dy, dz := sx[j]-xi, sy[j]-yi, sz[j]-zi
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue // coincident particles: self-exclusion, not Inf
			}
			inv := 1 / math.Sqrt(r2)
			inv2 := inv * inv
			tj, ti := sq[j]*inv, qi*inv
			p += tj
			sphi[j] += ti
			w, v := tj*inv2, ti*inv2
			fx += w * dx
			fy += w * dy
			fz += w * dz
			sgx[j] -= v * dx // the reciprocal field (Newton's third law)
			sgy[j] -= v * dy
			sgz[j] -= v * dz
		}
		phi[i] += p
		gx[i] += fx
		gy[i] += fy
		gz[i] += fz
	}
}
