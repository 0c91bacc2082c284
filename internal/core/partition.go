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
	boxOf := make([]int32, len(pos))
	counts := make([]int, nb+1)
	for i, p := range pos {
		b := h.LeafOf(p).Index(n)
		boxOf[i] = int32(b)
		counts[b+1]++
	}
	for b := 0; b < nb; b++ {
		counts[b+1] += counts[b]
	}
	start := make([]int, nb+1)
	copy(start, counts)
	perm := make([]int, len(pos))
	fill := make([]int, nb)
	for i := range pos {
		b := boxOf[i]
		perm[start[b]+fill[b]] = i
		fill[b]++
	}
	return &Partition{Grid: n, Start: start, Perm: perm}
}

// Box returns the particle indices of leaf box c.
func (p *Partition) Box(c geom.Coord3) []int {
	b := c.Index(p.Grid)
	return p.Perm[p.Start[b]:p.Start[b+1]]
}

// Count returns the number of particles in leaf box c.
func (p *Partition) Count(c geom.Coord3) int {
	b := c.Index(p.Grid)
	return p.Start[b+1] - p.Start[b]
}

// MaxPerBox returns the largest box population (the paper's 4-D particle
// arrays are dimensioned by this).
func (p *Partition) MaxPerBox() int {
	m := 0
	for b := 0; b+1 < len(p.Start); b++ {
		if c := p.Start[b+1] - p.Start[b]; c > m {
			m = c
		}
	}
	return m
}
