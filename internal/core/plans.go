package core

import (
	"nbody/internal/blas"
	"nbody/internal/geom"
	"nbody/internal/tree"
)

// This file builds the solver's steady-state traversal plans: every gather
// map the upward (T1), downward-shift (T3) and interactive-field (T2)
// sweeps need. The seed implementation rebuilt these index maps inside
// every solve — for time-stepping workloads that rebuild dominated the
// hierarchical phases — so they are now constructed once in NewSolver and
// reused by every solve (the zero-allocation reuse contract).

// gatherPlan pairs source and destination box indices for one
// parent-child octant sweep: dst[dstIdx[i]] += T * src[srcIdx[i]].
type gatherPlan struct {
	srcIdx, dstIdx []int32
}

// latticeT2 describes the (source, target) pairs of one interactive-field
// (octant, offset) sweep without materializing them: targets are the
// parity-aligned lattice {lox + 2i, loy + 2j, loz + 2k} clipped to the
// grid, and the source index is always target index + delta (the linear
// index of the fixed offset). Materialized index arrays for the T2 sweeps
// would cost O(875 * boxes) memory per level; the lattice form is O(1) per
// (octant, offset). tt is the offset's conversion matrix, transposed (see
// TranslationSet.T2T).
type latticeT2 struct {
	tt            blas.Matrix
	delta         int32
	lox, loy, loz int32
	nx, ny, nz    int32
	grid          int32
	count         int32
}

// buildUpwardPlans returns, for each parent level l in [2, depth-1] and
// octant, the child-to-parent gather map of the T1 sweep.
func buildUpwardPlans(h tree.Hierarchy, depth int) [][8]gatherPlan {
	plans := make([][8]gatherPlan, depth+1)
	for l := 2; l <= depth-1; l++ {
		np := h.GridSize(l)
		nc := h.GridSize(l + 1)
		nb := np * np * np
		for oct := 0; oct < 8; oct++ {
			src := make([]int32, nb)
			dst := make([]int32, nb)
			for pb := 0; pb < nb; pb++ {
				pc := geom.CoordFromIndex(pb, np)
				src[pb] = int32(pc.Child(oct).Index(nc))
				dst[pb] = int32(pb)
			}
			plans[l][oct] = gatherPlan{srcIdx: src, dstIdx: dst}
		}
	}
	return plans
}

// buildT3Plans returns, for each child level l in [3, depth] and octant,
// the parent-to-child gather map of the T3 sweep.
func buildT3Plans(h tree.Hierarchy, depth int) [][8]gatherPlan {
	plans := make([][8]gatherPlan, depth+1)
	for l := 3; l <= depth; l++ {
		np := h.GridSize(l - 1)
		nc := h.GridSize(l)
		nb := np * np * np
		for oct := 0; oct < 8; oct++ {
			src := make([]int32, nb)
			dst := make([]int32, nb)
			for pb := 0; pb < nb; pb++ {
				pc := geom.CoordFromIndex(pb, np)
				src[pb] = int32(pb)
				dst[pb] = int32(pc.Child(oct).Index(nc))
			}
			plans[l][oct] = gatherPlan{srcIdx: src, dstIdx: dst}
		}
	}
	return plans
}

// t2Sweep is one level's interactive-field schedule: owner-computes, one
// parallel region per level. Targets of different octants are disjoint and,
// within an octant, so are z-planes, so a job is an (octant, z-plane) and
// walks its octant's lattices over the targets it owns. No two jobs write
// the same box, and every target receives its offsets in
// s.interactive[oct] order. Built once in NewSolver, region body included,
// so a steady-state sweep allocates no closure.
type t2Sweep struct {
	lats  []latticeT2 // octant-major; within an octant, s.interactive[oct] order
	octLo [9]int32    // octant o owns lats[octLo[o]:octLo[o+1]]
	level int
	grid  int   // boxes per axis at this level
	count int64 // conversions per sweep (sum of lattice counts)
	run   func(job int)
}

// t2Job names the targets one job owns: the boxes of octant oct in plane z.
type t2Job struct{ oct, z int }

// jobs returns the number of jobs in the sweep.
func (sw *t2Sweep) jobs() int { return 8 * (sw.grid / 2) }

// job decodes job index i: octant-major, then plane.
func (sw *t2Sweep) job(i int) t2Job {
	half := sw.grid / 2
	oct := i / half
	return t2Job{oct: oct, z: 2*(i%half) + oct>>2&1}
}

// clip returns the part of the lattice that job j owns: the box index of
// its first target (the plane's ny rows are two apart in y, each with nx
// targets two apart in x). ok is false when the lattice has no target in
// the job's plane. The lattice must belong to the job's octant, so parities
// agree and only the range needs checking.
func (lat *latticeT2) clip(j t2Job) (first int, ok bool) {
	if j.z < int(lat.loz) || j.z > int(lat.loz+2*(lat.nz-1)) {
		return 0, false
	}
	g := int(lat.grid)
	return (j.z*g+int(lat.loy))*g + int(lat.lox), true
}

// buildT2Sweep enumerates the non-empty (octant, offset) lattices of one
// level's interactive field and prebuilds the region body.
func (s *Solver) buildT2Sweep(l int) *t2Sweep {
	n := s.hier.GridSize(l)
	sw := &t2Sweep{level: l, grid: n}
	for oct := 0; oct < 8; oct++ {
		for _, o := range s.interactive[oct] {
			lat, ok := offsetLattice(n, oct, o)
			if !ok {
				continue
			}
			lat.tt = s.ts.t2tFor(o)
			sw.lats = append(sw.lats, lat)
			sw.count += int64(lat.count)
		}
		sw.octLo[oct+1] = int32(len(sw.lats))
	}
	sw.run = func(i int) { s.t2Job(sw, i) }
	return sw
}

// offsetLattice computes the clipped, parity-aligned target lattice for
// targets of a given octant under a fixed interactive offset (source =
// target + o). ok is false when clipping empties the lattice.
func offsetLattice(n, oct int, o geom.Coord3) (latticeT2, bool) {
	lox, hix := clipRange(n, o.X)
	loy, hiy := clipRange(n, o.Y)
	loz, hiz := clipRange(n, o.Z)
	alignUp := func(lo, parity int) int {
		if lo%2 != parity {
			lo++
		}
		return lo
	}
	lox = alignUp(lox, oct&1)
	loy = alignUp(loy, oct>>1&1)
	loz = alignUp(loz, oct>>2&1)
	if lox > hix || loy > hiy || loz > hiz {
		return latticeT2{}, false
	}
	nx := (hix-lox)/2 + 1
	ny := (hiy-loy)/2 + 1
	nz := (hiz-loz)/2 + 1
	lat := latticeT2{
		delta: int32((o.Z*n+o.Y)*n + o.X),
		lox:   int32(lox), loy: int32(loy), loz: int32(loz),
		nx: int32(nx), ny: int32(ny), nz: int32(nz),
		grid:  int32(n),
		count: int32(nx * ny * nz),
	}
	return lat, true
}

// clipRange returns the target-coordinate range for which target+offset
// stays inside [0, n).
func clipRange(n, off int) (lo, hi int) {
	lo, hi = 0, n-1
	if off < 0 {
		lo = -off
	} else {
		hi = n - 1 - off
	}
	return lo, hi
}
