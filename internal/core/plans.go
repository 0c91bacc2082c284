package core

import (
	"nbody/internal/blas"
	"nbody/internal/geom"
	"nbody/internal/tree"
)

// This file builds the solver's traversal plans. Every translation of the
// method — T1 up, T3 down, T2 across, plain or through supernodes — applies
// one matrix to all the boxes that share a relative geometry (the paper's
// techniques 4 and 5), and on the regular box arrays those boxes form a
// lattice: evenly spaced along every axis of the source grid and of the
// target grid. So a translation is never a stored list of (source, target)
// pairs, only index arithmetic — O(1) per matrix where index arrays for the
// interactive field alone would cost O(875 * boxes) per level. One walker
// (aggregate.go) applies every lattice; the four builders below differ only
// in which lattices they enumerate. Plans are built once in NewSolver and
// reused by every solve (the zero-allocation reuse contract).

// side places a lattice in one of the two grids it connects: the level's
// expansion array, its boxes per axis, and the lattice pitch in boxes — 1
// when the lattice takes every box of a run, 2 when it takes the boxes of
// one octant.
type side struct {
	data       []float64
	grid, step int
}

// strides returns the element strides of one lattice step along x and
// along y for K-vectors.
func (sd side) strides(k int) blas.Strides {
	return blas.Strides{Box: sd.step * k, Row: sd.step * sd.grid * k}
}

// plane returns the box stride of one lattice step along z.
func (sd side) plane() int { return sd.step * sd.grid * sd.grid }

// shape is the pair of grids a lattice reads and writes.
type shape struct{ src, dst side }

// lattice is one matrix applied over a clipped box lattice: nz planes of ny
// rows of nx targets, the first target box dst fed by the first source box
// src, every further one a lattice step away on both sides. tt is the
// matrix, transposed (see TranslationSet). p0 is the first plane of the
// owning class that holds a target (see sweep).
type lattice struct {
	tt         blas.Matrix
	src, dst   int32
	p0         int32
	nx, ny, nz int32
	shape      int32 // index into sweep.shapes
}

// sweep is one translation phase at one level: owner-computes, one parallel
// region. The targets fall into classes whose members no two lattices of
// different classes share — the eight octants of the target grid, or all of
// it — and a class into z-planes, so a job is a (class, plane) and walks its
// class's lattices, in order, over the targets it owns. No two jobs write
// the same box, and every target receives its contributions in the order of
// lats, whatever the schedule. Built once in NewSolver; its region
// (buildPhases) runs sweepJob over the jobs.
type sweep struct {
	phase  Phase
	shapes []shape
	lats   []lattice // class-major; within a class, application order
	lo     []int32   // class c owns lats[lo[c]:lo[c+1]]
	planes int       // planes per class
	count  int64     // translations per sweep (sum of lattice sizes)
}

// inlineBoxes is the largest parent level (in boxes) whose T1/T3 sweeps run
// on the caller (their region's inline flag): eight matrices over at most
// this many vectors each finish in microseconds, less than a scheduler round
// trip.
const inlineBoxes = 128

// jobs returns the number of jobs in the sweep.
func (sw *sweep) jobs() int { return (len(sw.lo) - 1) * sw.planes }

// newSweep starts a sweep of the given phase whose classes have the given
// number of planes, with room for nlats lattices.
func newSweep(phase Phase, planes, nlats int, shapes ...shape) *sweep {
	return &sweep{
		phase:  phase,
		shapes: shapes,
		lats:   make([]lattice, 0, nlats),
		lo:     make([]int32, 1, 9), // at most eight classes
		planes: planes,
	}
}

// add appends a lattice to the class being filled; empty ones are dropped.
func (sw *sweep) add(lat lattice, ok bool) {
	if !ok {
		return
	}
	sw.lats = append(sw.lats, lat)
	sw.count += int64(lat.nx) * int64(lat.ny) * int64(lat.nz)
}

// endClass closes the class being filled.
func (sw *sweep) endClass() { sw.lo = append(sw.lo, int32(len(sw.lats))) }

// buildT2 is the interactive-field conversion of level l without
// supernodes: far[l] -> loc[l], one same-level lattice per (octant, offset)
// in tree.InteractiveOffsets order, jobs (octant, z-plane).
func (s *Solver) buildT2(l int, interactive *[8][]geom.Coord3) *sweep {
	n := s.hier.GridSize(l)
	// Count first: at level 2 clipping empties nine lattices in ten, and a
	// slice sized for all of them would hold half a megabyte per solver.
	nlats := 0
	for oct := range interactive {
		for _, o := range interactive[oct] {
			if _, _, ok := clipLattice(n, o, oct, 2); ok {
				nlats++
			}
		}
	}
	sw := newSweep(PhaseT2, n/2, nlats,
		shape{src: side{s.far[l], n, 2}, dst: side{s.loc[l], n, 2}})
	for oct := range interactive {
		for _, o := range interactive[oct] {
			sw.add(offsetLattice(n, oct, o, s.ts.t2tFor(o), 0))
		}
		sw.endClass()
	}
	return sw
}

// buildT2Supernodes is the interactive-field conversion of level l > 2
// through the supernode decomposition: each target first receives its
// parent-granularity sources (far[l-1] -> loc[l], dense parent rows into the
// same-octant children), then the remaining child-granularity ones, both in
// tree.SupernodeDecomposition order. Jobs are (octant, child z-plane) as in
// buildT2.
func (s *Solver) buildT2Supernodes(l int) *sweep {
	n := s.hier.GridSize(l)
	np := n / 2
	var supers [8]tree.Supernodes
	nlats := 0
	for oct := range supers {
		supers[oct] = tree.SupernodeDecomposition(s.cfg.Separation, oct)
		nlats += len(supers[oct].ParentOffsets) + len(supers[oct].ChildOffsets)
	}
	sw := newSweep(PhaseT2, np, nlats,
		shape{src: side{s.far[l-1], np, 1}, dst: side{s.loc[l], n, 2}},
		shape{src: side{s.far[l], n, 2}, dst: side{s.loc[l], n, 2}})
	for oct, sn := range supers {
		for i, t := range sn.ParentOffsets {
			sw.add(parentLattice(np, oct, t, s.ts.T2Super[oct][i]))
		}
		for _, o := range sn.ChildOffsets {
			sw.add(offsetLattice(n, oct, o, s.ts.t2tFor(o), 1))
		}
		sw.endClass()
	}
	return sw
}

// buildT3 is the downward shift into level l: loc[l-1] -> loc[l], for each
// octant the offset-zero parent lattice. Jobs are (octant, child z-plane).
func (s *Solver) buildT3(l int) *sweep {
	n := s.hier.GridSize(l)
	np := n / 2
	sw := newSweep(PhaseT3, np, 8,
		shape{src: side{s.loc[l-1], np, 1}, dst: side{s.loc[l], n, 2}})
	for oct := 0; oct < 8; oct++ {
		sw.add(parentLattice(np, oct, geom.Coord3{}, s.ts.T3[oct]))
		sw.endClass()
	}
	return sw
}

// buildT1 is the upward combination into level l: far[l+1] -> far[l], the
// mirror image of buildT3. All eight lattices write the same parents, so
// there is one class and a job is a parent z-plane, applying the octants in
// ascending order.
func (s *Solver) buildT1(l int) *sweep {
	np := s.hier.GridSize(l)
	sw := newSweep(PhaseUpward, np, 8,
		shape{src: side{s.far[l+1], 2 * np, 2}, dst: side{s.far[l], np, 1}})
	for oct := 0; oct < 8; oct++ {
		lat, ok := parentLattice(np, oct, geom.Coord3{}, s.ts.T1[oct])
		lat.src, lat.dst = lat.dst, lat.src
		sw.add(lat, ok)
	}
	sw.endClass()
	return sw
}

// offsetLattice is the lattice of one interactive-field offset o within a
// grid of n boxes per axis: the targets are the boxes of octant oct whose
// source, target + o, is inside the grid. ok is false when clipping leaves
// none. Planes are numbered by z/2, the plane's index within its octant.
func offsetLattice(n, oct int, o geom.Coord3, tt blas.Matrix, shape int32) (lattice, bool) {
	lo, cnt, ok := clipLattice(n, o, oct, 2)
	if !ok {
		return lattice{}, false
	}
	return lattice{
		tt:  tt,
		src: int32(lo.Add(o).Index(n)), dst: int32(lo.Index(n)),
		p0: int32(lo.Z / 2),
		nx: int32(cnt.X), ny: int32(cnt.Y), nz: int32(cnt.Z),
		shape: shape,
	}, true
}

// parentLattice is the lattice between a parent grid of np boxes per axis
// and the child grid below it, for parent offset t: the sources are the
// parents p + t inside the grid — dense runs — and the targets the children
// of octant oct of the parents p. Planes are numbered by the parent's z.
func parentLattice(np, oct int, t geom.Coord3, tt blas.Matrix) (lattice, bool) {
	lo, cnt, ok := clipLattice(np, t, 0, 1)
	if !ok {
		return lattice{}, false
	}
	return lattice{
		tt:  tt,
		src: int32(lo.Add(t).Index(np)), dst: int32(lo.Child(oct).Index(2 * np)),
		p0: int32(lo.Z),
		nx: int32(cnt.X), ny: int32(cnt.Y), nz: int32(cnt.Z),
	}, true
}

// clipLattice returns the boxes c of an n-per-axis grid, step apart from
// the first of octant oct's parity (any box when step is 1), for which
// c + off stays inside the grid: the lowest one and the count per axis.
func clipLattice(n int, off geom.Coord3, oct, step int) (lo, cnt geom.Coord3, ok bool) {
	axis := func(off, parity int) (int, int) {
		lo, hi := 0, n-1
		if off < 0 {
			lo = -off
		} else {
			hi -= off
		}
		if step == 2 && lo%2 != parity {
			lo++
		}
		if lo > hi {
			return 0, 0
		}
		return lo, (hi-lo)/step + 1
	}
	lo.X, cnt.X = axis(off.X, oct&1)
	lo.Y, cnt.Y = axis(off.Y, oct>>1&1)
	lo.Z, cnt.Z = axis(off.Z, oct>>2&1)
	return lo, cnt, cnt.X > 0 && cnt.Y > 0 && cnt.Z > 0
}
