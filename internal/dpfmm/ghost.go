package dpfmm

import (
	"sync/atomic"

	"nbody/internal/blas"
	"nbody/internal/dp"
	"nbody/internal/geom"
	"nbody/internal/metrics"
	"nbody/internal/pipeline"
	"nbody/internal/tree"
)

// T2Level runs only the interactive-field conversion between a far-field
// grid and a local-field grid of equal extent — the isolated phase the
// Table 4 experiment measures.
func (s *Solver) T2Level(far, loc *dp.Grid3) { s.t2Level(far, loc) }

// t2Level converts interactive-field outer approximations into local fields
// at one level, using the solver's ghost strategy. All four strategies
// compute identical results; they differ in data motion, which is what
// Table 4 measures.
func (s *Solver) t2Level(far, loc *dp.Grid3) {
	switch s.Strategy {
	case DirectUnaliased:
		s.t2ShiftPerOffset(far, loc)
	case LinearizedUnaliased:
		s.t2SnakeUnitShifts(far, loc)
	default:
		s.t2Ghost(far, loc)
	}
}

// member reports whether offset o is in the interactive field of octant oct.
func (s *Solver) member(oct int, o geom.Coord3) bool {
	b := tree.InteractiveOffsetBound(s.Cfg.Separation)
	if o.ChebDist(geom.Coord3{}) > b {
		return false
	}
	return o.ChebDist(geom.Coord3{}) > s.Cfg.Separation && s.octMember(oct, o)
}

func (s *Solver) octMember(oct int, o geom.Coord3) bool {
	i := [3]int{oct & 1, oct >> 1 & 1, oct >> 2 & 1}
	for a, v := range [3]int{o.X, o.Y, o.Z} {
		lo := -2*s.Cfg.Separation - i[a]
		hi := 2*s.Cfg.Separation + 1 - i[a]
		if v < lo || v > hi {
			return false
		}
	}
	return true
}

// applyOffsetLocal adds T2(o) * aligned[c] into loc[c] for every target c
// whose octant includes offset o and whose source c+o is inside the domain.
// aligned must satisfy aligned[c] = far[c+o] (established by shifting).
func (s *Solver) applyOffsetLocal(aligned, loc *dp.Grid3, o geom.Coord3) {
	pipeline.Step(&s.rec, metrics.PhaseT2, FaultSiteT2, func() {
		k := s.TS.K
		eff := s.M.Cost.GemmEfficiency(k)
		n := loc.N
		layout := loc.Layout
		var applied int64
		loc.ForEachBox(func(c geom.Coord3, dst []float64) {
			if !s.member(c.Octant(), o) {
				return
			}
			if !c.Add(o).In(n) {
				return // masked: the shifted data wrapped around the domain
			}
			s.TS.ApplyT2(o, aligned.At(c), dst)
			atomicAdd(&applied, 1)
			s.M.ChargeCompute(layout.VUOf(c), blas.DgemmFlops(k, k, 1), eff)
		})
		s.rec.AddT2(applied)
		s.rec.AddFlops(metrics.PhaseT2, applied*blas.DgemmFlops(k, k, 1))
	})
}

// t2ShiftPerOffset is the DirectUnaliased strategy: one whole-array
// multi-axis CSHIFT per offset in the union interactive field.
func (s *Solver) t2ShiftPerOffset(far, loc *dp.Grid3) {
	for _, o := range tree.UnionInteractiveOffsets(s.Cfg.Separation) {
		aligned := far
		if o != (geom.Coord3{}) {
			pipeline.Step(&s.rec, metrics.PhaseGhost, FaultSiteGhost, func() {
				if o.X != 0 {
					aligned = aligned.CShift(dp.AxisX, o.X)
				}
				if o.Y != 0 {
					aligned = aligned.CShift(dp.AxisY, o.Y)
				}
				if o.Z != 0 {
					aligned = aligned.CShift(dp.AxisZ, o.Z)
				}
			})
		}
		s.applyOffsetLocal(aligned, loc, o)
	}
}

// t2SnakeUnitShifts is the LinearizedUnaliased strategy: a boustrophedon
// walk of unit-offset CSHIFTs through the whole offset cube, applying the
// conversion at every interactive cell as the traveling array passes
// through alignment.
func (s *Solver) t2SnakeUnitShifts(far, loc *dp.Grid3) {
	b := tree.InteractiveOffsetBound(s.Cfg.Separation)
	traveling := far.Clone()
	cur := geom.Coord3{}
	visit := func(target geom.Coord3) {
		if cur != target {
			pipeline.Step(&s.rec, metrics.PhaseGhost, FaultSiteGhost, func() {
				cur = walk(cur, target, func(axis dp.Axis, step int) {
					traveling = traveling.CShift(axis, step)
				})
			})
		}
		if cur.ChebDist(geom.Coord3{}) > s.Cfg.Separation {
			s.applyOffsetLocal(traveling, loc, cur)
		}
	}
	// Walk to one corner of the cube, then snake through all of it with
	// unit steps (x fastest, matching the preferred low-order-bit axis).
	for _, cell := range snakeCells(b) {
		visit(cell)
	}
}

// snakeCells enumerates the cube [-b, b]^3 exactly once each, in a
// boustrophedon order whose consecutive cells differ by one unit step. The
// walker first travels from the origin to the starting corner without
// processing the cells it passes (each cell is processed exactly once, when
// its boustrophedon turn comes).
func snakeCells(b int) []geom.Coord3 {
	var cells []geom.Coord3
	n := 2*b + 1
	for iz := 0; iz < n; iz++ {
		z := -b + iz
		for iy := 0; iy < n; iy++ {
			y := -b + iy
			if iz%2 == 1 {
				y = b - iy
			}
			for ix := 0; ix < n; ix++ {
				x := -b + ix
				if (iz*n+iy)%2 == 1 {
					x = b - ix
				}
				cells = append(cells, geom.Coord3{X: x, Y: y, Z: z})
			}
		}
	}
	return cells
}

// ghostDepth returns the ghost-region depth for a grid: 2d boxes on every
// subgrid face (4 for two-separation, as in Section 3.3.1). That bound
// relies on the box-parity / octant relationship, which holds only when the
// subgrid extents are even; degenerate subgrids (extent 1, near the root or
// on heavily partitioned machines) need the full 2d+1.
func (s *Solver) ghostDepth(g *dp.Grid3) int {
	sx, sy, sz := g.SubgridDims()
	if sx%2 == 0 && sy%2 == 0 && sz%2 == 0 {
		return 2 * s.Cfg.Separation
	}
	return 2*s.Cfg.Separation + 1
}

// t2Ghost implements both aliased strategies: fill a per-VU ghost buffer of
// shape (S+2g)^3 and convert entirely locally. DirectAliased fetches the 26
// ghost regions independently (6 faces + 12 edges + 8 corners; a region at
// Chebyshev VU-distance r costs r axis CSHIFTs); LinearizedAliased performs
// the dimension-wise exchange in 6 unit-hop whole-section moves, each hop
// extending the already-filled buffer (edge and corner data ride along).
func (s *Solver) t2Ghost(far, loc *dp.Grid3) {
	k := s.TS.K
	g := s.ghostDepth(far)
	sx, sy, sz := far.SubgridDims()
	gx, gy, gz := sx+2*g, sy+2*g, sz+2*g
	n := far.N
	px, py, _ := far.Layout.VUGrid()
	eff := s.M.Cost.GemmEfficiency(k)

	ghosts := make([][]float64, far.NumVUsUsed())
	pipeline.Step(&s.rec, metrics.PhaseGhost, FaultSiteGhost, func() {
		var offWords, localWords int64
		far.ForEachVU(func(vu int, slab []float64) {
			buf := make([]float64, gx*gy*gz*k)
			vx := vu % px
			vy := vu / px % py
			vz := vu / (px * py)
			var off, local int64
			for lz := 0; lz < gz; lz++ {
				for ly := 0; ly < gy; ly++ {
					for lx := 0; lx < gx; lx++ {
						gc := geom.Coord3{
							X: vx*sx + lx - g,
							Y: vy*sy + ly - g,
							Z: vz*sz + lz - g,
						}
						if !gc.In(n) {
							continue // outside the domain: stays zero
						}
						dst := buf[((lz*gy+ly)*gx+lx)*k:]
						copy(dst[:k], far.At(gc))
						if far.Layout.VUOf(gc) == vu {
							local += int64(k)
						} else {
							off += int64(k)
						}
					}
				}
			}
			ghosts[vu] = buf
			atomicAdd(&offWords, off)
			atomicAdd(&localWords, local)
		})
		calls := int64(6) // linearized: dimension-wise, 2 hops per axis
		if s.Strategy == DirectAliased {
			calls = 6*1 + 12*2 + 8*3 // per-region axis-shift sequences
		}
		s.M.AccountGhostFetch(calls, offWords, localWords)
		s.rec.AddBytes(metrics.PhaseGhost, offWords*8)
	})

	// Local conversion from the ghost buffer.
	pipeline.Step(&s.rec, metrics.PhaseT2, FaultSiteT2, func() {
		var applied int64
		loc.ForEachVU(func(vu int, slab []float64) {
			buf := ghosts[vu]
			vx := vu % px
			vy := vu / px % py
			vz := vu / (px * py)
			var flops, nt int64
			for lz := 0; lz < sz; lz++ {
				for ly := 0; ly < sy; ly++ {
					for lx := 0; lx < sx; lx++ {
						c := geom.Coord3{X: vx*sx + lx, Y: vy*sy + ly, Z: vz*sz + lz}
						oct := c.Octant()
						dst := slab[loc.LocalIndex(lx, ly, lz):]
						dst = dst[:k]
						for _, o := range s.interactive[oct] {
							if !c.Add(o).In(n) {
								continue
							}
							src := buf[(((lz+g+o.Z)*gy+(ly+g+o.Y))*gx+(lx+g+o.X))*k:]
							s.TS.ApplyT2(o, src[:k], dst)
							flops += blas.DgemmFlops(k, k, 1)
							nt++
						}
					}
				}
			}
			atomicAdd(&applied, nt)
			s.M.ChargeCompute(vu, flops, eff)
		})
		s.rec.AddT2(applied)
		s.rec.AddFlops(metrics.PhaseT2, applied*blas.DgemmFlops(k, k, 1))
	})
}

func atomicAdd(p *int64, v int64) { atomic.AddInt64(p, v) }
