package tree

import (
	"testing"

	"nbody/internal/geom"
)

func TestNewHierarchy2Validation(t *testing.T) {
	if _, err := NewHierarchy2(geom.Box2{Side: 1}, 0); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := NewHierarchy2(geom.Box2{Side: -1}, 3); err == nil {
		t.Error("negative side accepted")
	}
	h, err := NewHierarchy2(geom.Box2{Side: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.GridSize(2) != 4 || h.NumBoxes(2) != 16 || h.BoxSide(2) != 1 {
		t.Errorf("geometry wrong: %d %d %g", h.GridSize(2), h.NumBoxes(2), h.BoxSide(2))
	}
}

func TestHierarchy2LeafOf(t *testing.T) {
	h, _ := NewHierarchy2(geom.Box2{Center: geom.Vec2{X: 0, Y: 0}, Side: 2}, 3)
	p := geom.Vec2{X: -0.9, Y: 0.9}
	c := h.LeafOf(p)
	if !h.Box(h.Depth, c).Contains(p) {
		t.Errorf("leaf box of %v does not contain it", p)
	}
}

func TestNearOffsets2Counts(t *testing.T) {
	if got := len(NearOffsets2(1)); got != 8 {
		t.Errorf("d=1: %d, want 8", got)
	}
	if got := len(NearOffsets2(2)); got != 24 {
		t.Errorf("d=2: %d, want 24", got)
	}
}

func TestInteractiveOffsets2Count(t *testing.T) {
	// (4d+2)^2 - (2d+1)^2 = 3(2d+1)^2: 27 for d=1, 75 for d=2.
	for _, d := range []int{1, 2} {
		want := 3 * (2*d + 1) * (2*d + 1)
		for q := 0; q < 4; q++ {
			if got := len(InteractiveOffsets2(d, q)); got != want {
				t.Errorf("d=%d q=%d: %d, want %d", d, q, got, want)
			}
		}
	}
}

func TestInteractiveOffsets2DisjointFromNear(t *testing.T) {
	for q := 0; q < 4; q++ {
		for _, o := range InteractiveOffsets2(2, q) {
			if o.ChebDist(geom.Coord2{}) <= 2 {
				t.Fatalf("q=%d: offset %v in near field", q, o)
			}
		}
	}
}

func TestSupernodeDecomposition2Counts(t *testing.T) {
	// d=2 in 2-D: 16 parent supernodes + 11 leftover children = 27
	// effective translations (vs 75), the 2-D analogue of 875 -> 189.
	for qd := 0; qd < 4; qd++ {
		sn := SupernodeDecomposition2(2, qd)
		if len(sn.ParentOffsets) != 16 {
			t.Errorf("qd %d: %d parent offsets, want 16", qd, len(sn.ParentOffsets))
		}
		if len(sn.ChildOffsets) != 11 {
			t.Errorf("qd %d: %d child offsets, want 11", qd, len(sn.ChildOffsets))
		}
	}
}

func TestSupernodeDecomposition2Covers(t *testing.T) {
	for qd := 0; qd < 4; qd++ {
		ix, iy := qd&1, qd>>1&1
		sn := SupernodeDecomposition2(2, qd)
		covered := map[geom.Coord2]bool{}
		for _, p := range sn.ParentOffsets {
			for oy := 0; oy < 2; oy++ {
				for ox := 0; ox < 2; ox++ {
					c := geom.Coord2{X: 2*p.X - ix + ox, Y: 2*p.Y - iy + oy}
					if covered[c] {
						t.Fatalf("qd %d: %v covered twice", qd, c)
					}
					covered[c] = true
				}
			}
		}
		for _, c := range sn.ChildOffsets {
			if covered[c] {
				t.Fatalf("qd %d: %v covered twice", qd, c)
			}
			covered[c] = true
		}
		want := InteractiveOffsets2(2, qd)
		if len(covered) != len(want) {
			t.Fatalf("qd %d: covered %d, want %d", qd, len(covered), len(want))
		}
		for _, o := range want {
			if !covered[o] {
				t.Fatalf("qd %d: %v not covered", qd, o)
			}
		}
	}
}
