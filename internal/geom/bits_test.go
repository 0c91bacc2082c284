package geom

import (
	"sort"
	"testing"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024, 1 << 30} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestLog2(t *testing.T) {
	for k := 0; k < 40; k++ {
		if got := Log2(1 << k); got != k {
			t.Errorf("Log2(2^%d) = %d", k, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Log2(3) should panic")
		}
	}()
	Log2(3)
}

func TestAxisSplitRoundTrip(t *testing.T) {
	a := AxisSplit{VUBits: 3, LocalBits: 4}
	for x := 0; x < 1<<(a.VUBits+a.LocalBits); x++ {
		vu, local := a.Split(x)
		if vu < 0 || vu >= 8 || local < 0 || local >= 16 {
			t.Fatalf("Split(%d) = (%d,%d) out of range", x, vu, local)
		}
		if got := a.Join(vu, local); got != x {
			t.Fatalf("Join(Split(%d)) = %d", x, got)
		}
	}
}

func TestBalancedLayout3(t *testing.T) {
	l := BalancedLayout3(32, 64) // 32^3 boxes over 64 VUs: 2 VU bits per axis
	px, py, pz := l.VUGrid()
	if px != 4 || py != 4 || pz != 4 {
		t.Errorf("VUGrid = %d,%d,%d, want 4,4,4", px, py, pz)
	}
	sx, sy, sz := l.Subgrid()
	if sx != 8 || sy != 8 || sz != 8 {
		t.Errorf("Subgrid = %d,%d,%d, want 8,8,8", sx, sy, sz)
	}
	if l.NumVUs() != 64 {
		t.Errorf("NumVUs = %d", l.NumVUs())
	}

	// Uneven split: 32 VUs = 2^5 over 3 axes -> bits (z,y,x) = (2,2,1).
	l = BalancedLayout3(32, 32)
	px, py, pz = l.VUGrid()
	if pz != 4 || py != 4 || px != 2 {
		t.Errorf("uneven VUGrid = %d,%d,%d, want 2,4,4 (x,y,z)", px, py, pz)
	}
	// X keeps the longest local extent.
	sx, sy, sz = l.Subgrid()
	if sx != 16 || sy != 8 || sz != 8 {
		t.Errorf("uneven Subgrid = %d,%d,%d", sx, sy, sz)
	}
}

func TestBalancedLayout3TooManyVUsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when VUs exceed boxes")
		}
	}()
	BalancedLayout3(2, 16)
}

func TestLayoutVUAndLocalCoverAllBoxes(t *testing.T) {
	l := BalancedLayout3(16, 8)
	n := 16
	counts := make(map[int]int)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				c := Coord3{x, y, z}
				vu := l.VUOf(c)
				if vu < 0 || vu >= l.NumVUs() {
					t.Fatalf("VUOf(%v) = %d out of range", c, vu)
				}
				counts[vu]++
			}
		}
	}
	// Block distribution: every VU owns the same number of boxes.
	want := n * n * n / l.NumVUs()
	for vu, got := range counts {
		if got != want {
			t.Fatalf("VU %d owns %d boxes, want %d", vu, got, want)
		}
	}
}

func TestSortKeyOrdersVUMajor(t *testing.T) {
	// Sorting coordinates by SortKey must group all boxes of VU 0 before all
	// boxes of VU 1, etc. — that is the property the coordinate sort of
	// Section 3.2 relies on for communication-free reshaping.
	l := BalancedLayout3(8, 8)
	n := 8
	var coords []Coord3
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				coords = append(coords, Coord3{x, y, z})
			}
		}
	}
	sort.Slice(coords, func(i, j int) bool {
		return l.SortKey(coords[i]) < l.SortKey(coords[j])
	})
	lastVU := -1
	for _, c := range coords {
		vu := l.VUOf(c)
		if vu < lastVU {
			t.Fatalf("sorted order visits VU %d after VU %d", vu, lastVU)
		}
		lastVU = vu
	}
	// Keys are unique per box.
	seen := make(map[uint64]bool)
	for _, c := range coords {
		k := l.SortKey(c)
		if seen[k] {
			t.Fatalf("duplicate sort key for %v", c)
		}
		seen[k] = true
	}
}
