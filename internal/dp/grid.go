package dp

import (
	"fmt"
	"math"

	"nbody/internal/geom"
	"nbody/internal/sched"
)

func bitsFromFloat(f float64) uint64 { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Grid3 is a block-distributed 3-D array of Vlen-word box vectors: the
// simulator's version of the paper's 4-D potential arrays (three parallel
// spatial axes plus one serial axis local to a VU). Each VU owns a
// contiguous subgrid slab stored row-major (z, y, x, vector element).
type Grid3 struct {
	m      *Machine
	N      int // boxes per axis (power of two)
	Vlen   int // words per box
	Layout geom.Layout3
	slabs  [][]float64
}

// NewGrid3 allocates a zeroed grid of extent n^3 with vlen words per box,
// block-distributed over the machine's VUs with the run-time system's
// default balanced layout (minimal surface-to-volume subgrids). If there
// are fewer boxes than VUs, the grid occupies a subset of the VUs (one box
// per VU on the lowest-numbered VUs), which is how levels near the root of
// the hierarchy behave.
func (m *Machine) NewGrid3(n, vlen int) *Grid3 {
	if !geom.IsPow2(n) {
		panic(fmt.Sprintf("dp: grid extent %d not a power of two", n))
	}
	nvu := m.NumVUs()
	if n*n*n < nvu {
		nvu = n * n * n
	}
	l := geom.BalancedLayout3(n, nvu)
	g := &Grid3{m: m, N: n, Vlen: vlen, Layout: l, slabs: make([][]float64, nvu)}
	sx, sy, sz := l.Subgrid()
	for vu := range g.slabs {
		g.slabs[vu] = make([]float64, sx*sy*sz*vlen)
	}
	return g
}

// NumVUsUsed returns the number of VUs holding a slab of this grid.
func (g *Grid3) NumVUsUsed() int { return len(g.slabs) }

// SubgridDims returns the per-VU subgrid extents.
func (g *Grid3) SubgridDims() (sx, sy, sz int) { return g.Layout.Subgrid() }

// At returns the vector of box c as a mutable view.
func (g *Grid3) At(c geom.Coord3) []float64 {
	vu := g.Layout.VUOf(c)
	off := g.Layout.LocalOf(c) * g.Vlen
	return g.slabs[vu][off : off+g.Vlen]
}

// Slab returns VU vu's raw subgrid storage (the array-aliasing view of
// Section 3: an alias that "separates the VU address from the local memory
// address").
func (g *Grid3) Slab(vu int) []float64 { return g.slabs[vu] }

// LocalIndex returns the slab word offset of local subgrid coordinate
// (lx, ly, lz).
func (g *Grid3) LocalIndex(lx, ly, lz int) int {
	sx, sy, _ := g.Layout.Subgrid()
	return ((lz*sy+ly)*sx + lx) * g.Vlen
}

// Zero clears the grid without charging any cost (allocation-time zeroing).
func (g *Grid3) Zero() {
	for _, s := range g.slabs {
		for i := range s {
			s[i] = 0
		}
	}
}

// Clone returns a deep copy sharing the machine and layout; the copy is
// charged as a local copy of every word.
func (g *Grid3) Clone() *Grid3 {
	ng := &Grid3{m: g.m, N: g.N, Vlen: g.Vlen, Layout: g.Layout, slabs: make([][]float64, len(g.slabs))}
	for vu := range g.slabs {
		ng.slabs[vu] = append([]float64(nil), g.slabs[vu]...)
	}
	words := int64(g.N) * int64(g.N) * int64(g.N) * int64(g.Vlen)
	g.chargeLocal(words)
	return ng
}

// ForEachVU runs fn for every VU slab in parallel (the data-parallel
// "elementwise" execution mode). fn must only touch its own slab.
func (g *Grid3) ForEachVU(fn func(vu int, slab []float64)) {
	sched.Run(len(g.slabs), func(vu int) { fn(vu, g.slabs[vu]) })
}

// ForEachBox runs fn for every box in parallel over VUs, passing the box
// coordinate and its vector.
func (g *Grid3) ForEachBox(fn func(c geom.Coord3, v []float64)) {
	sx, sy, sz := g.Layout.Subgrid()
	px, py, _ := g.Layout.VUGrid()
	g.ForEachVU(func(vu int, slab []float64) {
		vx := vu % px
		vy := vu / px % py
		vz := vu / (px * py)
		for lz := 0; lz < sz; lz++ {
			for ly := 0; ly < sy; ly++ {
				for lx := 0; lx < sx; lx++ {
					c := geom.Coord3{X: vx*sx + lx, Y: vy*sy + ly, Z: vz*sz + lz}
					off := ((lz*sy+ly)*sx + lx) * g.Vlen
					fn(c, slab[off:off+g.Vlen])
				}
			}
		}
	})
}

func (g *Grid3) chargeLocal(words int64) {
	c := &g.m.counters
	atomicAdd64(&c.LocalWords, words)
	c.addCopyCycles(float64(words) * g.m.Cost.CopyCyclesPerWord / float64(maxInt(len(g.slabs), 1)))
}

func (g *Grid3) chargeOffVU(words int64) {
	c := &g.m.counters
	atomicAdd64(&c.OffVUWords, words)
	c.addCommCycles(float64(words) * g.m.Cost.ShiftCyclesPerWord / float64(maxInt(len(g.slabs), 1)))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
