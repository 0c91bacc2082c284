package tree

import (
	"fmt"

	"nbody/internal/geom"
)

// Hierarchy2 is the 2-D (quadtree) analogue of Hierarchy, used by the 2-D
// variant of Anderson's method. The paper stresses that the 2-D and 3-D
// codes are nearly identical; keeping the two hierarchies structurally
// parallel preserves that property here.
type Hierarchy2 struct {
	Root  geom.Box2
	Depth int
}

// NewHierarchy2 validates and returns a 2-D hierarchy.
func NewHierarchy2(root geom.Box2, depth int) (Hierarchy2, error) {
	if depth < 2 {
		return Hierarchy2{}, fmt.Errorf("tree: depth %d < 2", depth)
	}
	if root.Side <= 0 {
		return Hierarchy2{}, fmt.Errorf("tree: nonpositive root side %g", root.Side)
	}
	return Hierarchy2{Root: root, Depth: depth}, nil
}

// GridSize returns the boxes-per-axis extent 2^level.
func (h Hierarchy2) GridSize(level int) int { return 1 << level }

// NumBoxes returns the number of boxes at a level, 4^level.
func (h Hierarchy2) NumBoxes(level int) int { n := h.GridSize(level); return n * n }

// BoxSide returns the side length of boxes at a level.
func (h Hierarchy2) BoxSide(level int) float64 { return h.Root.Side / float64(h.GridSize(level)) }

// Box returns the geometric square of box c at a level.
func (h Hierarchy2) Box(level int, c geom.Coord2) geom.Box2 {
	return geom.BoxCenter2(c, h.Root, level)
}

// LeafOf returns the leaf-level coordinate of the box containing p.
func (h Hierarchy2) LeafOf(p geom.Vec2) geom.Coord2 {
	return geom.BoxOf2(p, h.Root, h.Depth)
}

// NearOffsets2 returns the d-separation near field offsets in 2-D:
// (2d+1)^2 - 1 offsets.
func NearOffsets2(d int) []geom.Coord2 {
	offs := make([]geom.Coord2, 0, (2*d+1)*(2*d+1)-1)
	for y := -d; y <= d; y++ {
		for x := -d; x <= d; x++ {
			if x == 0 && y == 0 {
				continue
			}
			offs = append(offs, geom.Coord2{X: x, Y: y})
		}
	}
	return offs
}

// Supernodes2 is the 2-D supernode decomposition: for d = 2, the 75
// interactive-field translations per box reduce to 16 parent-granularity
// plus 11 child-granularity, an effective count of 27 (the same reduction
// factor the paper reports in 3-D, 875 -> 189).
type Supernodes2 struct {
	ParentOffsets []geom.Coord2 // at the PARENT level, relative to the child's parent
	ChildOffsets  []geom.Coord2 // at the child's level, relative to the child
}

// SupernodeDecomposition2 computes the 2-D decomposition for one quadrant
// under d-separation.
func SupernodeDecomposition2(d, quadrant int) Supernodes2 {
	ix, iy := quadrant&1, quadrant>>1&1
	var sn Supernodes2
	for ty := -d; ty <= d; ty++ {
		for tx := -d; tx <= d; tx++ {
			var children []geom.Coord2
			anyNear := false
			for oy := 0; oy < 2; oy++ {
				for ox := 0; ox < 2; ox++ {
					c := geom.Coord2{X: 2*tx - ix + ox, Y: 2*ty - iy + oy}
					if c.ChebDist(geom.Coord2{}) <= d {
						anyNear = true
					} else {
						children = append(children, c)
					}
				}
			}
			if !anyNear && len(children) == 4 {
				sn.ParentOffsets = append(sn.ParentOffsets, geom.Coord2{X: tx, Y: ty})
			} else {
				sn.ChildOffsets = append(sn.ChildOffsets, children...)
			}
		}
	}
	return sn
}

// InteractiveOffsets2 returns the interactive-field offsets of a child box
// of the given quadrant under d-separation: (4d+2)^2 - (2d+1)^2 offsets
// (75 for d=2, the 2-D analogue of the paper's 875).
func InteractiveOffsets2(d, quadrant int) []geom.Coord2 {
	ix, iy := quadrant&1, quadrant>>1&1
	var offs []geom.Coord2
	for ty := -d; ty <= d; ty++ {
		for tx := -d; tx <= d; tx++ {
			for oy := 0; oy < 2; oy++ {
				for ox := 0; ox < 2; ox++ {
					c := geom.Coord2{X: 2*tx - ix + ox, Y: 2*ty - iy + oy}
					if c.ChebDist(geom.Coord2{}) <= d {
						continue
					}
					offs = append(offs, c)
				}
			}
		}
	}
	return offs
}
