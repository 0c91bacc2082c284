package core

import "nbody/internal/blas"

// This file applies the translations of many boxes as level-3 BLAS (Section
// 3.3.3, technique 4) — in the gather-free form. The paper gathers the
// vectors of the boxes that share a matrix into the columns of a block,
// multiplies, and scatters the product back, a copy it charges 2/K of the
// multiply for (Table 3). Here the boxes that share a matrix are a lattice
// (plans.go), evenly strided on both sides, so with boxes as the ROWS of the
// product their vectors are multiplied where they lie (blas.DgemmRowsT) and
// nothing is copied. T1, T3, plain T2 and supernode T2 all run through the
// one walker below.

// sweepJob is the body of a sweep's region (buildPhases): job i applies every
// lattice of its class, in order, to the plane of targets it owns. Owners
// are disjoint, so jobs write disjoint boxes, and each box receives its
// contributions in the same order under any schedule — results are bitwise
// independent of the worker count.
//
// cfg.DisableAggregation (the Section 3.3.3 ablation) walks the same
// lattices a box at a time through the single-vector kernel: level-2 BLAS
// in place of level-3, the same schedule, bitwise the same result.
func (s *Solver) sweepJob(sw *sweep, i int) {
	k := s.ts.K
	class, plane := i/sw.planes, i%sw.planes
	for li := sw.lo[class]; li < sw.lo[class+1]; li++ {
		lat := &sw.lats[li]
		p := plane - int(lat.p0)
		if p < 0 || p >= int(lat.nz) {
			continue // the lattice has no target in this plane
		}
		sh := &sw.shapes[lat.shape]
		src := sh.src.data[(int(lat.src)+p*sh.src.plane())*k:]
		dst := sh.dst.data[(int(lat.dst)+p*sh.dst.plane())*k:]
		ss, ds := sh.src.strides(k), sh.dst.strides(k)
		nx, ny := int(lat.nx), int(lat.ny)
		if !s.cfg.DisableAggregation {
			blas.DgemmRowsT(lat.tt, src, dst, nx, ny, ss, ds)
			continue
		}
		for r := 0; r < ny; r++ {
			for x := 0; x < nx; x++ {
				so, do := r*ss.Row+x*ss.Box, r*ds.Row+x*ds.Box
				blas.DgemvT(lat.tt, src[so:so+k], dst[do:do+k])
			}
		}
	}
}
