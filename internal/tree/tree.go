// Package tree implements the non-adaptive spatial hierarchy of the O(N)
// methods (Section 2.1 of Hu & Johnsson SC'96): the recursive decomposition
// of a cubic domain into 8^l boxes per level, the d-separation near field,
// the interactive field, and the supernode decomposition that reduces the
// interactive-field translation count in three dimensions from 875 to 189.
//
// The hierarchy is "flattened": a level is just its grid extent, and boxes
// are integer coordinates (geom.Coord3) into per-level arrays. This mirrors
// the paper's embedding of the whole hierarchy into slices of 4-D arrays and
// is what both the shared-memory and data-parallel solvers index against.
package tree

import (
	"fmt"

	"nbody/internal/geom"
)

// Hierarchy describes a non-adaptive 3-D hierarchy of Depth+1 levels: level
// 0 is the root box, level Depth is the leaf level with 8^Depth boxes.
type Hierarchy struct {
	Root  geom.Box3
	Depth int
}

// NewHierarchy validates and returns a hierarchy.
func NewHierarchy(root geom.Box3, depth int) (Hierarchy, error) {
	if depth < 2 {
		// T2 is first applied at level 2 (the paper's downward pass starts
		// at l=2); shallower hierarchies degenerate to direct evaluation.
		return Hierarchy{}, fmt.Errorf("tree: depth %d < 2", depth)
	}
	if root.Side <= 0 {
		return Hierarchy{}, fmt.Errorf("tree: nonpositive root side %g", root.Side)
	}
	return Hierarchy{Root: root, Depth: depth}, nil
}

// GridSize returns the boxes-per-axis extent 2^level.
func (h Hierarchy) GridSize(level int) int { return 1 << level }

// NumBoxes returns the number of boxes at a level, 8^level.
func (h Hierarchy) NumBoxes(level int) int { n := h.GridSize(level); return n * n * n }

// BoxSide returns the side length of boxes at a level.
func (h Hierarchy) BoxSide(level int) float64 { return h.Root.Side / float64(h.GridSize(level)) }

// Box returns the geometric cube of box c at a level.
func (h Hierarchy) Box(level int, c geom.Coord3) geom.Box3 {
	return geom.BoxCenter3(c, h.Root, level)
}

// LeafOf returns the leaf-level coordinate of the box containing p.
func (h Hierarchy) LeafOf(p geom.Vec3) geom.Coord3 {
	return geom.BoxOf3(p, h.Root, h.Depth)
}

// NearOffsets returns the relative coordinates of the d-separation near
// field: all nonzero offsets with Chebyshev norm <= d, (2d+1)^3 - 1 of them.
func NearOffsets(d int) []geom.Coord3 {
	offs := make([]geom.Coord3, 0, (2*d+1)*(2*d+1)*(2*d+1)-1)
	for z := -d; z <= d; z++ {
		for y := -d; y <= d; y++ {
			for x := -d; x <= d; x++ {
				if x == 0 && y == 0 && z == 0 {
					continue
				}
				offs = append(offs, geom.Coord3{X: x, Y: y, Z: z})
			}
		}
	}
	return offs
}

// InteractiveOffsets returns, for a child box of the given octant (see
// geom.Coord3.Octant), the relative offsets at the child's level of its
// interactive field under d-separation: children of the parent's near-field
// boxes that are not in the child's own near field. For d=2 there are 875
// per octant (the paper's N_int for interior boxes).
func InteractiveOffsets(d, octant int) []geom.Coord3 {
	ix, iy, iz := octant&1, octant>>1&1, octant>>2&1
	var offs []geom.Coord3
	for tz := -d; tz <= d; tz++ {
		for ty := -d; ty <= d; ty++ {
			for tx := -d; tx <= d; tx++ {
				// Parent offset (tx,ty,tz); its 8 children sit at child
				// offsets 2t - i + {0,1} along each axis.
				for oz := 0; oz < 2; oz++ {
					for oy := 0; oy < 2; oy++ {
						for ox := 0; ox < 2; ox++ {
							c := geom.Coord3{
								X: 2*tx - ix + ox,
								Y: 2*ty - iy + oy,
								Z: 2*tz - iz + oz,
							}
							if c.ChebDist(geom.Coord3{}) <= d {
								continue // own near field (or self)
							}
							offs = append(offs, c)
						}
					}
				}
			}
		}
	}
	return offs
}

// InteractiveOffsetBound returns the largest absolute child-level offset
// that can occur in any octant's interactive field: 2d+1. The union of all
// octants' interactive fields lies in [-(2d+1), 2d+1]^3, the 1331-box cube
// (for d=2) the paper generates T2 matrices over for ease of indexing.
func InteractiveOffsetBound(d int) int { return 2*d + 1 }

// UnionInteractiveOffsets returns the union over all eight octants of the
// interactive-field offsets: 1206 offsets for d=2 (the paper's count).
func UnionInteractiveOffsets(d int) []geom.Coord3 {
	seen := make(map[geom.Coord3]bool)
	var offs []geom.Coord3
	for oct := 0; oct < 8; oct++ {
		for _, o := range InteractiveOffsets(d, oct) {
			if !seen[o] {
				seen[o] = true
				offs = append(offs, o)
			}
		}
	}
	return offs
}

// Supernodes describes the supernode decomposition of a child box's
// interactive field (Section 2.3): parent-level source boxes whose eight
// children all lie in the interactive field are handled by a single
// parent-granularity translation; the remaining child boxes individually.
// For d=2 this yields 98 parent offsets and 91 child offsets per octant,
// the paper's effective N_int of 189.
type Supernodes struct {
	// ParentOffsets are offsets at the PARENT level, relative to the child
	// box's parent.
	ParentOffsets []geom.Coord3
	// ChildOffsets are offsets at the child's level, relative to the child.
	ChildOffsets []geom.Coord3
}

// SupernodeDecomposition computes the decomposition for one octant under
// d-separation.
func SupernodeDecomposition(d, octant int) Supernodes {
	ix, iy, iz := octant&1, octant>>1&1, octant>>2&1
	var sn Supernodes
	for tz := -d; tz <= d; tz++ {
		for ty := -d; ty <= d; ty++ {
			for tx := -d; tx <= d; tx++ {
				// Child offsets of this parent's 8 children.
				var children []geom.Coord3
				anyNear := false
				for oz := 0; oz < 2; oz++ {
					for oy := 0; oy < 2; oy++ {
						for ox := 0; ox < 2; ox++ {
							c := geom.Coord3{
								X: 2*tx - ix + ox,
								Y: 2*ty - iy + oy,
								Z: 2*tz - iz + oz,
							}
							if c.ChebDist(geom.Coord3{}) <= d {
								anyNear = true
							} else {
								children = append(children, c)
							}
						}
					}
				}
				switch {
				case !anyNear && len(children) == 8:
					sn.ParentOffsets = append(sn.ParentOffsets, geom.Coord3{X: tx, Y: ty, Z: tz})
				default:
					sn.ChildOffsets = append(sn.ChildOffsets, children...)
				}
			}
		}
	}
	return sn
}
