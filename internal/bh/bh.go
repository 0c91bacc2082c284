// Package bh implements the Barnes-Hut O(N log N) hierarchical N-body
// method with monopole + quadrupole cell expansions, the baseline against
// which the paper's Table 1 compares Anderson's O(N) method (the
// Salmon/Warren and Liu/Bhatt rows). The implementation follows the
// classic formulation: an adaptive octree over the particles, and per
// particle a traversal that accepts a cell when s/d < theta (s cell side,
// d distance to the cell's center of mass) and otherwise opens it.
package bh

import (
	"fmt"
	"sync/atomic"

	"nbody/internal/geom"
	"nbody/internal/sched"
)

// node is one octree cell. Children are indices into the tree's node slice
// (-1 when absent); leaves with a single particle carry its index.
type node struct {
	center geom.Vec3 // geometric center of the cell
	side   float64
	com    geom.Vec3 // expansion center (charge centroid, clamped into the cell)
	q      float64   // total charge
	// dip is the dipole moment about com. It vanishes when com is the true
	// charge-weighted centroid, but for (near-)neutral cells com falls
	// back to the geometric center and the dipole carries the leading
	// far-field term — essential for plasma-like signed-charge systems.
	dip geom.Vec3
	// quad is the traceless quadrupole tensor about com, stored as
	// (xx, yy, zz, xy, xz, yz).
	quad     [6]float64
	children [8]int32
	particle int32 // >= 0 for single-particle leaves
	count    int32
}

// Tree is a Barnes-Hut octree built over a particle set.
type Tree struct {
	nodes []node
	pos   []geom.Vec3
	q     []float64

	// LeafCap is the number of particles below which a cell is stored as a
	// bucket rather than subdivided further.
	leafCap int
	buckets map[int32][]int32
}

// Config controls tree construction and traversal.
type Config struct {
	// Theta is the opening-angle acceptance parameter; 0 selects 0.6.
	Theta float64
	// LeafCap is the bucket size; 0 selects 8.
	LeafCap int
	// Quadrupole enables quadrupole terms (the paper's baseline rows use
	// quadrupole accuracy).
	Quadrupole bool
}

func (c Config) normalize() Config {
	if c.Theta == 0 {
		c.Theta = 0.6
	}
	if c.LeafCap == 0 {
		c.LeafCap = 8
	}
	return c
}

// Build constructs the octree for the particles inside root.
func Build(root geom.Box3, pos []geom.Vec3, q []float64, cfg Config) (*Tree, error) {
	if len(pos) != len(q) {
		return nil, fmt.Errorf("bh: %d positions but %d charges", len(pos), len(q))
	}
	cfg = cfg.normalize()
	t := &Tree{pos: pos, q: q, leafCap: cfg.LeafCap, buckets: make(map[int32][]int32)}
	idx := make([]int32, len(pos))
	for i := range idx {
		idx[i] = int32(i)
		if !root.Contains(pos[i]) && !onClosedBox(root, pos[i]) {
			return nil, fmt.Errorf("bh: particle %v outside root %v", pos[i], root)
		}
	}
	t.build(root, idx)
	t.computeMoments(0)
	return t, nil
}

func onClosedBox(b geom.Box3, p geom.Vec3) bool {
	h := b.Side / 2
	return p.X >= b.Center.X-h && p.X <= b.Center.X+h &&
		p.Y >= b.Center.Y-h && p.Y <= b.Center.Y+h &&
		p.Z >= b.Center.Z-h && p.Z <= b.Center.Z+h
}

// build recursively partitions idx into the subtree rooted at a fresh node
// and returns its index.
func (t *Tree) build(box geom.Box3, idx []int32) int32 {
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{
		center:   box.Center,
		side:     box.Side,
		particle: -1,
		count:    int32(len(idx)),
	})
	for c := range t.nodes[ni].children {
		t.nodes[ni].children[c] = -1
	}
	if len(idx) == 0 {
		return ni
	}
	if len(idx) == 1 {
		t.nodes[ni].particle = idx[0]
		return ni
	}
	if len(idx) <= t.leafCap {
		t.buckets[ni] = append([]int32(nil), idx...)
		return ni
	}
	var parts [8][]int32
	for _, i := range idx {
		oct := 0
		p := t.pos[i]
		if p.X >= box.Center.X {
			oct |= 1
		}
		if p.Y >= box.Center.Y {
			oct |= 2
		}
		if p.Z >= box.Center.Z {
			oct |= 4
		}
		parts[oct] = append(parts[oct], i)
	}
	for oct := 0; oct < 8; oct++ {
		if len(parts[oct]) == 0 {
			continue
		}
		child := t.build(box.Child(oct), parts[oct])
		t.nodes[ni].children[oct] = child
	}
	return ni
}

// computeMoments fills in total charge, center of mass and quadrupole
// moments bottom-up.
func (t *Tree) computeMoments(ni int32) {
	n := &t.nodes[ni]
	accumulate := func(indices []int32) {
		var q float64
		var com geom.Vec3
		for _, i := range indices {
			q += t.q[i]
			com = com.Add(t.pos[i].Scale(t.q[i]))
		}
		n.q = q
		n.com = n.center
		if q != 0 {
			c := com.Scale(1 / q)
			// Use the charge centroid only when it stays inside the cell;
			// near-neutral cells produce runaway centroids, for which the
			// geometric center plus the dipole term is both stable and
			// more accurate.
			if insideCell(c, n.center, n.side) {
				n.com = c
			}
		}
		for _, i := range indices {
			d := t.pos[i].Sub(n.com)
			r2 := d.Norm2()
			qi := t.q[i]
			n.dip = n.dip.Add(d.Scale(qi))
			n.quad[0] += qi * (3*d.X*d.X - r2)
			n.quad[1] += qi * (3*d.Y*d.Y - r2)
			n.quad[2] += qi * (3*d.Z*d.Z - r2)
			n.quad[3] += qi * 3 * d.X * d.Y
			n.quad[4] += qi * 3 * d.X * d.Z
			n.quad[5] += qi * 3 * d.Y * d.Z
		}
	}
	switch {
	case n.particle >= 0:
		n.q = t.q[n.particle]
		n.com = t.pos[n.particle]
	case n.count > 0 && t.buckets[ni] != nil:
		accumulate(t.buckets[ni])
	default:
		// Internal: recurse, then combine children via the parallel-axis
		// shift of the quadrupole.
		var q float64
		var com geom.Vec3
		for _, c := range n.children {
			if c < 0 {
				continue
			}
			t.computeMoments(c)
			cn := &t.nodes[c]
			q += cn.q
			com = com.Add(cn.com.Scale(cn.q))
		}
		n.q = q
		n.com = n.center
		if q != 0 {
			c := com.Scale(1 / q)
			// Use the charge centroid only when it stays inside the cell;
			// near-neutral cells produce runaway centroids, for which the
			// geometric center plus the dipole term is both stable and
			// more accurate.
			if insideCell(c, n.center, n.side) {
				n.com = c
			}
		}
		for _, c := range n.children {
			if c < 0 {
				continue
			}
			cn := &t.nodes[c]
			d := cn.com.Sub(n.com)
			r2 := d.Norm2()
			n.dip = n.dip.Add(cn.dip).Add(d.Scale(cn.q))
			n.quad[0] += cn.quad[0] + cn.q*(3*d.X*d.X-r2)
			n.quad[1] += cn.quad[1] + cn.q*(3*d.Y*d.Y-r2)
			n.quad[2] += cn.quad[2] + cn.q*(3*d.Z*d.Z-r2)
			n.quad[3] += cn.quad[3] + cn.q*3*d.X*d.Y
			n.quad[4] += cn.quad[4] + cn.q*3*d.X*d.Z
			n.quad[5] += cn.quad[5] + cn.q*3*d.Y*d.Z
		}
	}
}

// Stats reports traversal instrumentation.
type Stats struct {
	CellInteractions     int64
	ParticleInteractions int64
}

// Potentials evaluates the potential at every particle with opening angle
// theta, in parallel over particles.
func (t *Tree) Potentials(cfg Config) ([]float64, Stats) {
	cfg = cfg.normalize()
	phi := make([]float64, len(t.pos))
	var st Stats
	sched.Run(len(t.pos), func(i int) {
		var cells, parts int64
		phi[i] = t.potentialAt(t.pos[i], int32(i), cfg, &cells, &parts)
		atomicAdd(&st.CellInteractions, cells)
		atomicAdd(&st.ParticleInteractions, parts)
	})
	return phi, st
}

// PotentialAtPoint evaluates the field at an arbitrary point (no particle
// exclusion).
func (t *Tree) PotentialAtPoint(x geom.Vec3, cfg Config) float64 {
	cfg = cfg.normalize()
	var cells, parts int64
	return t.potentialAt(x, -1, cfg, &cells, &parts)
}

func (t *Tree) potentialAt(x geom.Vec3, exclude int32, cfg Config, cells, parts *int64) float64 {
	var phi float64
	stack := make([]int32, 1, 128)
	stack[0] = 0
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[ni]
		if n.count == 0 {
			continue
		}
		if n.particle >= 0 {
			if n.particle != exclude {
				phi += t.q[n.particle] / x.Dist(t.pos[n.particle])
				*parts++
			}
			continue
		}
		d := x.Sub(n.com)
		dist := d.Norm()
		if dist > 0 && n.side/dist < cfg.Theta {
			phi += n.q / dist
			if cfg.Quadrupole {
				// Dipole p.d/r^3 plus quadrupole (1/2) d^T Q d / r^5 with
				// the traceless Q stored above. The dipole vanishes except
				// for (near-)neutral cells, where it is the leading term.
				r3 := dist * dist * dist
				phi += n.dip.Dot(d) / r3
				qd := n.quad[0]*d.X*d.X + n.quad[1]*d.Y*d.Y + n.quad[2]*d.Z*d.Z +
					2*(n.quad[3]*d.X*d.Y+n.quad[4]*d.X*d.Z+n.quad[5]*d.Y*d.Z)
				phi += qd / (2 * r3 * dist * dist)
			}
			*cells++
			continue
		}
		if b, ok := t.buckets[ni]; ok {
			for _, j := range b {
				if j != exclude {
					phi += t.q[j] / x.Dist(t.pos[j])
					*parts++
				}
			}
			continue
		}
		for _, c := range n.children {
			if c >= 0 {
				stack = append(stack, c)
			}
		}
	}
	return phi
}

// NumNodes returns the octree size.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// MaxDepth returns the depth of the tree (root = 0).
func (t *Tree) MaxDepth() int {
	var walk func(ni int32) int
	walk = func(ni int32) int {
		d := 0
		for _, c := range t.nodes[ni].children {
			if c >= 0 {
				if cd := walk(c) + 1; cd > d {
					d = cd
				}
			}
		}
		return d
	}
	return walk(0)
}

// FlopsPerCell is the conventional flop count charged per accepted
// cell-particle interaction with quadrupole terms.
const FlopsPerCell = 34

// TotalFlops converts traversal statistics into the flop counts used by the
// Table 1 comparison.
func (s Stats) TotalFlops() int64 {
	return s.CellInteractions*FlopsPerCell + s.ParticleInteractions*9
}

func atomicAdd(p *int64, v int64) { atomic.AddInt64(p, v) }

func insideCell(p, center geom.Vec3, side float64) bool {
	h := side / 2
	return p.X >= center.X-h && p.X <= center.X+h &&
		p.Y >= center.Y-h && p.Y <= center.Y+h &&
		p.Z >= center.Z-h && p.Z <= center.Z+h
}
