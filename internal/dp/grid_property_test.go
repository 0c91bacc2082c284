package dp

import (
	"testing"
	"testing/quick"

	"nbody/internal/geom"
)

func TestCShiftComposition(t *testing.T) {
	// Shifting by a then b along the same axis equals shifting by a+b
	// (data identity; the counters differ, which is the whole point of the
	// linearized strategies).
	m := testMachine(t, 2)
	g := m.NewGrid3(8, 1)
	fillByCoord(g)
	f := func(aRaw, bRaw int8) bool {
		a, b := int(aRaw%8), int(bRaw%8)
		two := g.CShift(AxisY, a).CShift(AxisY, b)
		one := g.CShift(AxisY, a+b)
		return mismatches(two, one) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCShiftAxesCommute(t *testing.T) {
	m := testMachine(t, 2)
	g := m.NewGrid3(4, 2)
	fillByCoord(g)
	xy := g.CShift(AxisX, 1).CShift(AxisY, -2)
	yx := g.CShift(AxisY, -2).CShift(AxisX, 1)
	if bad := mismatches(xy, yx); bad != 0 {
		t.Errorf("axis shifts do not commute at %d boxes", bad)
	}
}

func TestCloneIsDeepAndCharged(t *testing.T) {
	m := testMachine(t, 2)
	g := m.NewGrid3(4, 1)
	g.At(geom.Coord3{X: 1, Y: 2, Z: 3})[0] = 5
	before := m.Counters()
	cl := g.Clone()
	d := m.Counters().Sub(before)
	if d.LocalWords != 4*4*4 {
		t.Errorf("clone charged %d local words, want 64", d.LocalWords)
	}
	cl.At(geom.Coord3{X: 1, Y: 2, Z: 3})[0] = 9
	if g.At(geom.Coord3{X: 1, Y: 2, Z: 3})[0] != 5 {
		t.Error("clone aliases the original")
	}
}

func TestSlabLocalIndexConsistency(t *testing.T) {
	m := testMachine(t, 2)
	g := m.NewGrid3(8, 3)
	// Writing through At must land where Slab+LocalIndex says.
	c := geom.Coord3{X: 5, Y: 6, Z: 1}
	g.At(c)[2] = 42
	vu := g.Layout.VUOf(c)
	sx, sy, _ := g.Layout.Subgrid()
	px, py, _ := g.Layout.VUGrid()
	vx := vu % px
	vy := vu / px % py
	vz := vu / (px * py)
	lx, ly, lz := c.X-vx*sx, c.Y-vy*sy, c.Z-vz*sy // note: sz==sy here
	off := g.LocalIndex(lx, ly, lz)
	if got := g.Slab(vu)[off+2]; got != 42 {
		t.Errorf("Slab/LocalIndex disagree with At: %g", got)
	}
}

func TestZeroClearsGrid(t *testing.T) {
	m := testMachine(t, 2)
	g := m.NewGrid3(4, 2)
	g.ForEachBox(func(c geom.Coord3, v []float64) { v[0] = 1 })
	g.Zero()
	g.ForEachBox(func(c geom.Coord3, v []float64) {
		if v[0] != 0 || v[1] != 0 {
			t.Fatalf("Zero left data at %v", c)
		}
	})
}

func TestCostModelSeconds(t *testing.T) {
	c := DefaultCostModel()
	if got := c.Seconds(40e6); got != 1.0 {
		t.Errorf("40M cycles at 40 MHz = %g s, want 1", got)
	}
}

func TestGridShapeMismatchesPanic(t *testing.T) {
	m := testMachine(t, 2)
	g := m.NewGrid3(4, 1)
	h := m.NewGrid3(8, 1)
	for name, fn := range map[string]func(){
		"CShiftInto": func() { g.CShiftInto(h, AxisX, 1) },
		"Add":        func() { g.Add(h) },
		"NewGrid3":   func() { m.NewGrid3(3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
