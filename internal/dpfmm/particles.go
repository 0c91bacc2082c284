package dpfmm

import (
	"fmt"
	"math"

	"nbody/internal/core"
	"nbody/internal/direct"
	"nbody/internal/dp"
	"nbody/internal/geom"
	"nbody/internal/metrics"
)

// particleGrid is the simulator's version of the paper's 4-D particle
// arrays (Section 3.2): per-leaf-box particle attribute storage padded to
// the maximum box population, aligned with the potential grids so that
// particle-box interactions are VU-local.
type particleGrid struct {
	boxArrays
	cap int

	// index maps sorted position -> original particle index.
	index []int
	boxOf []geom.Coord3 // leaf box of each sorted particle
	slot  []int         // slot of each sorted particle within its box
}

// ReshapeStats reports the communication behaviour of the coordinate sort +
// reshape: the paper's claim is that after the coordinate sort, the 1-D to
// 4-D reshape needs no inter-VU communication for uniform distributions
// with at least one box per VU.
type ReshapeStats struct {
	MovedOffVU int64 // particles whose 1-D VU differed from their box's VU
	Local      int64
}

// ReshapeStats returns the reshape statistics of this solver's most recent
// solve.
func (s *Solver) ReshapeStats() ReshapeStats { return s.reshape }

// partitionParticles performs the coordinate sort of Section 3.2 and builds
// the particle grids, with field planes when force is set.
func (s *Solver) partitionParticles(pos []geom.Vec3, q []float64, force bool) (*particleGrid, error) {
	n := s.Hier.GridSize(s.Cfg.Depth)
	root := s.Hier.Root
	h := root.Side / 2
	for _, p := range pos {
		// The negated form rejects NaN coordinates as well (every
		// comparison with NaN is false).
		ok := math.Abs(p.X-root.Center.X) <= h && math.Abs(p.Y-root.Center.Y) <= h &&
			math.Abs(p.Z-root.Center.Z) <= h
		if !ok {
			return nil, fmt.Errorf("dpfmm: particle %v outside domain %v", p, root)
		}
	}
	// Keys built from the potential-grid layout: VU address bits above
	// local memory address bits (Figure 5).
	probe := s.M.NewGrid3(n, 1)
	layout := probe.Layout
	keys := make([]uint64, len(pos))
	for i, p := range pos {
		keys[i] = layout.SortKey(s.Hier.LeafOf(p))
	}
	xs := make([]float64, len(pos))
	ys := make([]float64, len(pos))
	zs := make([]float64, len(pos))
	qs := make([]float64, len(pos))
	for i, p := range pos {
		xs[i], ys[i], zs[i], qs[i] = p.X, p.Y, p.Z, q[i]
	}
	ax := s.M.NewArray1D(xs)
	ay := s.M.NewArray1D(ys)
	az := s.M.NewArray1D(zs)
	aq := s.M.NewArray1D(qs)
	perm := dp.SortByKeys(s.M, keys, ax, ay, az, aq)

	pg := &particleGrid{
		index: perm,
		boxOf: make([]geom.Coord3, len(pos)),
		slot:  make([]int, len(pos)),
	}
	// Box of each sorted particle, box populations, capacity.
	counts := make(map[geom.Coord3]int)
	for i := range perm {
		c := s.Hier.LeafOf(geom.Vec3{X: ax.Data[i], Y: ay.Data[i], Z: az.Data[i]})
		pg.boxOf[i] = c
		pg.slot[i] = counts[c]
		counts[c]++
		if counts[c] > pg.cap {
			pg.cap = counts[c]
		}
	}
	if pg.cap == 0 {
		pg.cap = 1
	}
	pg.count = s.M.NewGrid3(n, 1)
	pg.x = s.M.NewGrid3(n, pg.cap)
	pg.y = s.M.NewGrid3(n, pg.cap)
	pg.z = s.M.NewGrid3(n, pg.cap)
	pg.q = s.M.NewGrid3(n, pg.cap)
	pg.phi = s.M.NewGrid3(n, pg.cap)
	if force {
		pg.gx = s.M.NewGrid3(n, pg.cap)
		pg.gy = s.M.NewGrid3(n, pg.cap)
		pg.gz = s.M.NewGrid3(n, pg.cap)
	}

	// Reshape 1-D sorted -> 4-D box arrays, counting the VU alignment the
	// coordinate sort is designed to deliver.
	var off, local int64
	for i := range perm {
		c := pg.boxOf[i]
		sl := pg.slot[i]
		pg.x.At(c)[sl] = ax.Data[i]
		pg.y.At(c)[sl] = ay.Data[i]
		pg.z.At(c)[sl] = az.Data[i]
		pg.q.At(c)[sl] = aq.Data[i]
		pg.count.At(c)[0]++
		if ax.VUOf(i) == layout.VUOf(c) {
			local += 4
		} else {
			off += 4
		}
	}
	s.M.AccountSend(off, local)
	s.reshape = ReshapeStats{MovedOffVU: off / 4, Local: local / 4}
	return pg, nil
}

// leafOuter samples each leaf box's particle potential at its outer sphere
// points (step 1) — entirely VU-local given the aligned particle grids.
func (s *Solver) leafOuter(pg *particleGrid, far *dp.Grid3) {
	rule := s.Cfg.Rule
	k := rule.K()
	a := s.Cfg.RadiusRatio * s.Hier.BoxSide(s.Cfg.Depth)
	layout := far.Layout
	eff := s.M.Cost.KernelEfficiency
	far.ForEachBox(func(c geom.Coord3, g []float64) {
		cnt := int(pg.count.At(c)[0])
		if cnt == 0 {
			return
		}
		p := pg.at(c, cnt)
		core.LeafOuter(rule, s.Hier.Box(s.Cfg.Depth, c).Center, a, p.x, p.y, p.z, p.q, g)
		s.M.ChargeCompute(layout.VUOf(c), int64(cnt)*int64(k)*direct.FlopsPerPair, eff)
	})
	s.rec.AddFlops(metrics.PhaseLeafOuter, int64(len(pg.index))*int64(k)*direct.FlopsPerPair)
}

// evalLocal evaluates the leaf inner approximations at the particles (step
// 4), and in a force solve their gradients into the field planes. The
// planes are fresh at this point, so the kernel's writes are the first.
func (s *Solver) evalLocal(pg *particleGrid, loc *dp.Grid3) {
	rule := s.Cfg.Rule
	k := rule.K()
	m := s.Cfg.M
	a := s.Cfg.RadiusRatio * s.Hier.BoxSide(s.Cfg.Depth)
	layout := loc.Layout
	eff := s.M.Cost.KernelEfficiency
	force := pg.gx != nil
	loc.ForEachBox(func(c geom.Coord3, g []float64) {
		cnt := int(pg.count.At(c)[0])
		if cnt == 0 {
			return
		}
		p := pg.at(c, cnt)
		core.EvalLocal(rule, m, s.Hier.Box(s.Cfg.Depth, c).Center, a, g, p.x, p.y, p.z, p.phi, p.gx, p.gy, p.gz)
		s.M.ChargeCompute(layout.VUOf(c), core.EvalLocalFlops(cnt, k, m, force), eff)
	})
	s.rec.AddFlops(metrics.PhaseEvalLocal, core.EvalLocalFlops(len(pg.index), k, m, force))
}

// scatter writes the per-box potentials, and the fields when acc is not
// nil, back to the particles' original order: the un-reshape.
func (pg *particleGrid) scatter(phi []float64, acc []geom.Vec3) {
	for i, orig := range pg.index {
		c, sl := pg.boxOf[i], pg.slot[i]
		phi[orig] = pg.phi.At(c)[sl]
		if acc != nil {
			acc[orig] = geom.Vec3{X: pg.gx.At(c)[sl], Y: pg.gy.At(c)[sl], Z: pg.gz.At(c)[sl]}
		}
	}
}
