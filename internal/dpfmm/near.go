package dpfmm

import (
	"nbody/internal/direct"
	"nbody/internal/dp"
	"nbody/internal/geom"
	"nbody/internal/kernels"
	"nbody/internal/metrics"
)

// boxArrays are the 4-D arrays of the near-field walk, one box vector per
// leaf box: the particle coordinates, charges and count, and the
// accumulators — phi, and in a force solve the field planes gx, gy, gz (nil
// in a potential solve).
type boxArrays struct {
	x, y, z, q, count *dp.Grid3
	phi, gx, gy, gz   *dp.Grid3
}

// grids lists the arrays that travel, in the order they are shifted.
func (b *boxArrays) grids() []**dp.Grid3 {
	gs := []**dp.Grid3{&b.x, &b.y, &b.z, &b.q, &b.count, &b.phi}
	if b.gx != nil {
		gs = append(gs, &b.gx, &b.gy, &b.gz)
	}
	return gs
}

// shift moves every array one step along axis (one CSHIFT each).
func (b *boxArrays) shift(axis dp.Axis, step int) {
	for _, g := range b.grids() {
		*g = (*g).CShift(axis, step)
	}
}

// at returns box c's planes trimmed to its cnt particles.
func (b *boxArrays) at(c geom.Coord3, cnt int) planes {
	p := planes{x: b.x.At(c)[:cnt], y: b.y.At(c)[:cnt], z: b.z.At(c)[:cnt], q: b.q.At(c)[:cnt],
		phi: b.phi.At(c)[:cnt]}
	if b.gx != nil {
		p.gx, p.gy, p.gz = b.gx.At(c)[:cnt], b.gy.At(c)[:cnt], b.gz.At(c)[:cnt]
	}
	return p
}

// planes is one set of particles as the pair kernels take it.
type planes struct{ x, y, z, q, phi, gx, gy, gz []float64 }

// sub returns particles [lo, hi) of p.
func (p planes) sub(lo, hi int) planes {
	s := planes{x: p.x[lo:hi], y: p.y[lo:hi], z: p.z[lo:hi], q: p.q[lo:hi], phi: p.phi[lo:hi]}
	if p.gx != nil {
		s.gx, s.gy, s.gz = p.gx[lo:hi], p.gy[lo:hi], p.gz[lo:hi]
	}
	return s
}

// interact evaluates every pair of a particle of t and one of src, two
// disjoint sets, once, and deposits it on both.
func interact(t, src planes) {
	if t.gx == nil {
		kernels.PairwisePotentialSoA(t.x, t.y, t.z, t.q, t.phi, src.x, src.y, src.z, src.q, src.phi)
		return
	}
	kernels.PairwiseFusedSoA(t.x, t.y, t.z, t.q, t.phi, t.gx, t.gy, t.gz,
		src.x, src.y, src.z, src.q, src.phi, src.gx, src.gy, src.gz)
}

// nearField evaluates the d-separation near field (step 5) by the paper's
// linear-ordering scheme with Newton's third law (Section 3.4, Figure 10),
// for potential and force solves alike. Pairs within a box come first:
// particle j against j+1..cnt of its own box. Then the particle arrays
// travel through HALF the near-field offsets (62 for two-separation)
// together with zeroed accumulators — phi's, and in a force solve the
// field's three; at each alignment each box adds the traveling box's
// contribution to its own particles AND deposits the reciprocal one into the
// traveling accumulators, which are finally shifted home and folded in.
// Every unordered pair is evaluated once, for half the arithmetic of a
// one-sided walk at the cost of shifting the accumulators along.
func (s *Solver) nearField(pg *particleGrid) {
	n := pg.count.N
	eff := s.M.Cost.DirectEfficiency
	layout := pg.count.Layout
	flopsPerPair := int64(direct.FlopsPerPair)
	if pg.gx != nil {
		flopsPerPair *= 2 // the field as well as the potential
	}

	var pairs int64
	pg.count.ForEachBox(func(c geom.Coord3, cv []float64) {
		cnt := int(cv[0])
		if cnt < 2 {
			return
		}
		own := pg.at(c, cnt)
		for j := 0; j+1 < cnt; j++ {
			interact(own.sub(j, j+1), own.sub(j+1, cnt))
		}
		p := int64(cnt) * int64(cnt-1) / 2
		s.M.ChargeCompute(layout.VUOf(c), p*flopsPerPair, eff)
		atomicAdd(&pairs, p)
	})

	// Traveling copies of the particle attributes, and the accumulators.
	t := boxArrays{x: pg.x.Clone(), y: pg.y.Clone(), z: pg.z.Clone(), q: pg.q.Clone(),
		count: pg.count.Clone(), phi: s.M.NewGrid3(n, pg.cap)}
	if pg.gx != nil {
		t.gx, t.gy, t.gz = s.M.NewGrid3(n, pg.cap), s.M.NewGrid3(n, pg.cap), s.M.NewGrid3(n, pg.cap)
	}

	cur := geom.Coord3{}
	for _, cell := range halfSnakeCells(s.Cfg.Separation) {
		cur = walk(cur, cell, t.shift)
		v := cur
		pg.count.ForEachBox(func(c geom.Coord3, cv []float64) {
			cnt := int(cv[0])
			if cnt == 0 || !c.Add(v).In(n) {
				return // empty target or wrapped (masked) source
			}
			scnt := int(t.count.At(c)[0])
			if scnt == 0 {
				return
			}
			interact(pg.at(c, cnt), t.at(c, scnt))
			s.M.ChargeCompute(layout.VUOf(c), int64(cnt)*int64(scnt)*flopsPerPair, eff)
			atomicAdd(&pairs, int64(cnt)*int64(scnt))
		})
	}
	s.rec.AddNearPairs(pairs)
	s.rec.AddFlops(metrics.PhaseNear, pairs*flopsPerPair)

	// Bring the accumulators home: the traveling arrays are aligned at
	// offset cur, so an accumulator's box c holds contributions for the
	// particles of box c+cur; shift by -cur (one CSHIFT per axis) and fold in.
	home := []*dp.Grid3{pg.phi, pg.gx, pg.gy, pg.gz}
	for i, acc := range []*dp.Grid3{t.phi, t.gx, t.gy, t.gz} {
		if acc == nil {
			break
		}
		for axis, off := range [3]int{cur.X, cur.Y, cur.Z} {
			if off != 0 {
				acc = acc.CShift(dp.Axis(axis), -off)
			}
		}
		home[i].Add(acc)
	}
}

// walk moves a traveling offset from cur to target by unit steps — along x
// first, then y, then z — calling shift once per step, and returns target.
func walk(cur, target geom.Coord3, shift func(axis dp.Axis, step int)) geom.Coord3 {
	for cur != target {
		switch {
		case cur.X != target.X:
			step := sign(target.X - cur.X)
			cur.X += step
			shift(dp.AxisX, step)
		case cur.Y != target.Y:
			step := sign(target.Y - cur.Y)
			cur.Y += step
			shift(dp.AxisY, step)
		default:
			step := sign(target.Z - cur.Z)
			cur.Z += step
			shift(dp.AxisZ, step)
		}
	}
	return cur
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

// halfSnakeCells enumerates one offset of every +/- pair of the near-field
// cube [-d, d]^3 \ {0} — the lexicographically positive half (z > 0, or
// z = 0 and y > 0, or z = y = 0 and x > 0) — in a unit-step order. The
// region is a stack of full slabs above a half slab, so a boustrophedon
// walk covers it with unit steps.
func halfSnakeCells(d int) []geom.Coord3 {
	var cells []geom.Coord3
	// z = 0 half-slab: the x > 0 ray of y = 0, then full rows y = 1..d.
	for x := 1; x <= d; x++ {
		cells = append(cells, geom.Coord3{X: x, Y: 0, Z: 0})
	}
	for y := 1; y <= d; y++ {
		for i := 0; i <= 2*d; i++ {
			x := -d + i
			if y%2 == 1 {
				x = d - i
			}
			cells = append(cells, geom.Coord3{X: x, Y: y, Z: 0})
		}
	}
	// Full slabs z = 1..d.
	for z := 1; z <= d; z++ {
		for iy := 0; iy <= 2*d; iy++ {
			y := -d + iy
			if z%2 == 0 {
				y = d - iy
			}
			for ix := 0; ix <= 2*d; ix++ {
				x := -d + ix
				if (z+iy)%2 == 0 {
					x = d - ix
				}
				cells = append(cells, geom.Coord3{X: x, Y: y, Z: z})
			}
		}
	}
	return cells
}
