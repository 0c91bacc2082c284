package tree

import (
	"testing"

	"nbody/internal/geom"
)

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(geom.Box3{Side: 1}, 1); err == nil {
		t.Error("depth 1 accepted")
	}
	if _, err := NewHierarchy(geom.Box3{Side: 0}, 3); err == nil {
		t.Error("zero side accepted")
	}
	h, err := NewHierarchy(geom.Box3{Side: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.GridSize(3) != 8 || h.NumBoxes(3) != 512 || h.BoxSide(3) != 0.25 {
		t.Errorf("level-3 geometry wrong: %d %d %g", h.GridSize(3), h.NumBoxes(3), h.BoxSide(3))
	}
}

func TestHierarchyBoxAndLeafOfAgree(t *testing.T) {
	h, _ := NewHierarchy(geom.Box3{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}, 4)
	p := geom.Vec3{X: 0.3, Y: 0.72, Z: 0.11}
	c := h.LeafOf(p)
	if !h.Box(h.Depth, c).Contains(p) {
		t.Errorf("leaf box of %v does not contain it", p)
	}
}

func TestNearOffsetsCounts(t *testing.T) {
	// (2d+1)^3 - 1: d=1 -> 26, d=2 -> 124 (the paper's two-separation count).
	if got := len(NearOffsets(1)); got != 26 {
		t.Errorf("d=1 near offsets = %d, want 26", got)
	}
	if got := len(NearOffsets(2)); got != 124 {
		t.Errorf("d=2 near offsets = %d, want 124", got)
	}
}

func TestNearOffsetsContent(t *testing.T) {
	for _, o := range NearOffsets(2) {
		if o == (geom.Coord3{}) {
			t.Fatal("self offset included")
		}
		if o.ChebDist(geom.Coord3{}) > 2 {
			t.Fatalf("offset %v outside near field", o)
		}
	}
}

func TestInteractiveOffsetsCount(t *testing.T) {
	// The paper: 7(2d+1)^3 interactive-field boxes; 875 for d=2, 189 for d=1.
	for _, d := range []int{1, 2, 3} {
		want := 7 * (2*d + 1) * (2*d + 1) * (2*d + 1)
		for oct := 0; oct < 8; oct++ {
			if got := len(InteractiveOffsets(d, oct)); got != want {
				t.Errorf("d=%d oct=%d: %d offsets, want %d", d, oct, got, want)
			}
		}
	}
}

func TestInteractiveOffsetsDisjointFromNearField(t *testing.T) {
	for oct := 0; oct < 8; oct++ {
		for _, o := range InteractiveOffsets(2, oct) {
			if o.ChebDist(geom.Coord3{}) <= 2 {
				t.Fatalf("oct %d: interactive offset %v inside near field", oct, o)
			}
		}
	}
}

func TestInteractiveOffsetsAreParentNearFieldChildren(t *testing.T) {
	// Every interactive box's parent must be in the target's parent's near
	// field (including the parent itself for octant-internal geometry).
	d := 2
	// Place the target at an interior coordinate so parents are exact.
	target := geom.Coord3{X: 16, Y: 16, Z: 16}
	for oct := 0; oct < 8; oct++ {
		tc := geom.Coord3{X: target.X*2 + oct&1, Y: target.Y*2 + oct>>1&1, Z: target.Z*2 + oct>>2&1}
		for _, o := range InteractiveOffsets(d, oct) {
			b := tc.Add(o)
			if b.Parent().ChebDist(tc.Parent()) > d {
				t.Fatalf("oct %d: interactive box %v has parent outside parent near field", oct, o)
			}
		}
	}
}

func TestInteractiveOffsetBound(t *testing.T) {
	d := 2
	bound := InteractiveOffsetBound(d)
	if bound != 5 {
		t.Fatalf("bound = %d, want 5", bound)
	}
	for oct := 0; oct < 8; oct++ {
		for _, o := range InteractiveOffsets(d, oct) {
			if o.ChebDist(geom.Coord3{}) > bound {
				t.Fatalf("offset %v exceeds bound %d", o, bound)
			}
		}
	}
}

func TestUnionInteractiveOffsets(t *testing.T) {
	// 1206 for d=2 (paper Section 3.3.2): 11^3 - 5^3.
	got := UnionInteractiveOffsets(2)
	if len(got) != 1206 {
		t.Errorf("union = %d offsets, want 1206", len(got))
	}
}

func TestSupernodeDecompositionCounts(t *testing.T) {
	// d=2: 98 parent supernodes + 91 leftover children = 189 effective
	// translations (paper Section 2.3).
	for oct := 0; oct < 8; oct++ {
		sn := SupernodeDecomposition(2, oct)
		if len(sn.ParentOffsets) != 98 {
			t.Errorf("oct %d: %d parent offsets, want 98", oct, len(sn.ParentOffsets))
		}
		if len(sn.ChildOffsets) != 91 {
			t.Errorf("oct %d: %d child offsets, want 91", oct, len(sn.ChildOffsets))
		}
	}
}

func TestSupernodeDecompositionCoversInteractiveField(t *testing.T) {
	// The union of the supernodes' children and the leftover child offsets
	// must be exactly the interactive field.
	for oct := 0; oct < 8; oct++ {
		ix, iy, iz := oct&1, oct>>1&1, oct>>2&1
		sn := SupernodeDecomposition(2, oct)
		covered := make(map[geom.Coord3]bool)
		for _, p := range sn.ParentOffsets {
			for oz := 0; oz < 2; oz++ {
				for oy := 0; oy < 2; oy++ {
					for ox := 0; ox < 2; ox++ {
						c := geom.Coord3{
							X: 2*p.X - ix + ox,
							Y: 2*p.Y - iy + oy,
							Z: 2*p.Z - iz + oz,
						}
						if covered[c] {
							t.Fatalf("oct %d: child %v covered twice", oct, c)
						}
						covered[c] = true
					}
				}
			}
		}
		for _, c := range sn.ChildOffsets {
			if covered[c] {
				t.Fatalf("oct %d: child %v covered twice", oct, c)
			}
			covered[c] = true
		}
		want := InteractiveOffsets(2, oct)
		if len(covered) != len(want) {
			t.Fatalf("oct %d: covered %d, want %d", oct, len(covered), len(want))
		}
		for _, o := range want {
			if !covered[o] {
				t.Fatalf("oct %d: interactive offset %v not covered", oct, o)
			}
		}
	}
}

func TestSupernodeParentsWellSeparated(t *testing.T) {
	// Every supernode parent must be outside the target's parent (its own
	// children never include the target's near cube), and at parent
	// Chebyshev distance exactly 2 on at least one axis for d=2.
	for oct := 0; oct < 8; oct++ {
		sn := SupernodeDecomposition(2, oct)
		for _, p := range sn.ParentOffsets {
			if p.ChebDist(geom.Coord3{}) != 2 {
				t.Errorf("oct %d: parent offset %v has Chebyshev distance %d, want 2",
					oct, p, p.ChebDist(geom.Coord3{}))
			}
		}
	}
}
