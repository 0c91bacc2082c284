package core

import (
	"nbody/internal/geom"
	"nbody/internal/tree"
)

// Partition buckets particles into leaf boxes in CSR form: the particles of
// leaf box b (row-major index) are Perm[Start[b]:Start[b+1]]. It is the
// shared-memory counterpart of the paper's coordinate sort (Section 3.2):
// particles of the same box become contiguous, in box order, so every
// particle-box interaction is a contiguous sweep.
type Partition struct {
	Grid  int   // boxes per axis at the leaf level
	Start []int // len Grid^3+1
	Perm  []int // particle indices in box order
}

// NewPartition assigns each particle to its leaf box via a counting sort —
// O(N), independent of the distribution, like the paper's radix-style
// coordinate sort.
func NewPartition(h tree.Hierarchy, pos []geom.Vec3) *Partition {
	n := h.GridSize(h.Depth)
	nb := n * n * n
	p := &Partition{Grid: n, Start: make([]int, nb+1), Perm: make([]int, len(pos))}
	p.sort(h.Root, pos, make([]int32, len(pos)), make([]int, nb))
	return p
}

// sort is the counting sort of NewPartition and of every solve (prepare):
// it bins pos into the Grid³ leaf boxes of root and fills Start and Perm,
// which the caller sizes, using boxOf (one per particle) and fill (one per
// box) as scratch. It returns the index of the first particle outside the
// closed root box, or -1; such a particle is binned into the leaf that
// geom.BoxOf3 clamps it to. The box index is BoxOf3's, with its scale and
// lower corner computed once per call instead of once per particle.
func (p *Partition) sort(root geom.Box3, pos []geom.Vec3, boxOf []int32, fill []int) (outside int) {
	n := p.Grid
	start := p.Start
	clear(start)
	outside = -1
	lo, hi := closedBounds(root)
	inv := float64(n) / root.Side
	for i, q := range pos {
		if !(q.X >= lo.X && q.X <= hi.X && q.Y >= lo.Y && q.Y <= hi.Y && q.Z >= lo.Z && q.Z <= hi.Z) && outside < 0 {
			outside = i
		}
		// BoxOf3 clamps a coordinate into [0, n).
		x := min(max(int((q.X-lo.X)*inv), 0), n-1)
		y := min(max(int((q.Y-lo.Y)*inv), 0), n-1)
		z := min(max(int((q.Z-lo.Z)*inv), 0), n-1)
		b := (z*n+y)*n + x
		boxOf[i] = int32(b)
		start[b+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	clear(fill)
	for i, b := range boxOf {
		p.Perm[start[b]+fill[b]] = i
		fill[b]++
	}
	return outside
}

// Count returns the number of particles in leaf box c.
func (p *Partition) Count(c geom.Coord3) int {
	b := c.Index(p.Grid)
	return p.Start[b+1] - p.Start[b]
}
