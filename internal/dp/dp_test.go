package dp

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"nbody/internal/geom"
)

func testMachine(t *testing.T, nodes int) *Machine {
	t.Helper()
	m, err := NewMachine(nodes, 4, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(3, 4, CostModel{}); err == nil {
		t.Error("non-power-of-two nodes accepted")
	}
	if _, err := NewMachine(4, 3, CostModel{}); err == nil {
		t.Error("non-power-of-two VUs accepted")
	}
	m, err := NewMachine(8, 0, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVUs() != 32 {
		t.Errorf("NumVUs = %d, want 32 (default 4 per node)", m.NumVUs())
	}
}

func TestGridAtRoundTrip(t *testing.T) {
	m := testMachine(t, 4)
	g := m.NewGrid3(8, 3)
	n := 8
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := g.At(geom.Coord3{X: x, Y: y, Z: z})
				v[0] = float64((z*n+y)*n + x)
				v[2] = 1
			}
		}
	}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := g.At(geom.Coord3{X: x, Y: y, Z: z})
				if v[0] != float64((z*n+y)*n+x) || v[2] != 1 {
					t.Fatalf("box (%d,%d,%d) corrupted: %v", x, y, z, v)
				}
			}
		}
	}
}

func TestGridFewerBoxesThanVUs(t *testing.T) {
	m := testMachine(t, 64) // 256 VUs
	g := m.NewGrid3(4, 2)   // 64 boxes
	if g.NumVUsUsed() != 64 {
		t.Errorf("VUs used = %d, want 64", g.NumVUsUsed())
	}
	g.At(geom.Coord3{X: 3, Y: 3, Z: 3})[1] = 42
	if g.At(geom.Coord3{X: 3, Y: 3, Z: 3})[1] != 42 {
		t.Error("write lost")
	}
}

func TestForEachBoxVisitsAllOnce(t *testing.T) {
	m := testMachine(t, 4)
	g := m.NewGrid3(8, 1)
	g.ForEachBox(func(c geom.Coord3, v []float64) { v[0]++ })
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if got := g.At(geom.Coord3{X: x, Y: y, Z: z})[0]; got != 1 {
					t.Fatalf("box (%d,%d,%d) visited %g times", x, y, z, got)
				}
			}
		}
	}
}

func TestCShiftSemantics(t *testing.T) {
	m := testMachine(t, 2)
	g := m.NewGrid3(4, 1)
	g.ForEachBox(func(c geom.Coord3, v []float64) { v[0] = float64(c.X + 10*c.Y + 100*c.Z) })
	// CSHIFT by +1 along X: dst[c] = src[x+1 mod n].
	d := g.CShift(AxisX, 1)
	d.ForEachBox(func(c geom.Coord3, v []float64) {
		want := float64((c.X+1)%4 + 10*c.Y + 100*c.Z)
		if v[0] != want {
			t.Fatalf("shift X+1 at %v = %g, want %g", c, v[0], want)
		}
	})
	// Negative shift along Z.
	d = g.CShift(AxisZ, -1)
	d.ForEachBox(func(c geom.Coord3, v []float64) {
		want := float64(c.X + 10*c.Y + 100*((c.Z+3)%4))
		if v[0] != want {
			t.Fatalf("shift Z-1 at %v = %g, want %g", c, v[0], want)
		}
	})
}

func TestCShiftCounters(t *testing.T) {
	m := testMachine(t, 2) // 8 VUs over 8^3 boxes: subgrid 4x4x8 (z,y split)
	g := m.NewGrid3(8, 2)
	m.ResetCounters()
	g.CShift(AxisX, 1)
	c := m.Counters()
	if c.CShifts != 1 {
		t.Errorf("CShifts = %d", c.CShifts)
	}
	// X axis is not split over VUs here (8 VUs = 2x2x2? BalancedLayout3
	// gives each axis one VU bit), subgrid 4 in x: shifting by 1 moves 1/4
	// of the boxes off-VU.
	total := int64(8 * 8 * 8 * 2)
	if c.OffVUWords != total/4 {
		t.Errorf("OffVUWords = %d, want %d", c.OffVUWords, total/4)
	}
	if c.LocalWords != total-total/4 {
		t.Errorf("LocalWords = %d, want %d", c.LocalWords, total-total/4)
	}
	// Shifting by the full extent is a no-op round trip: everything local.
	m.ResetCounters()
	g.CShift(AxisX, 8)
	c = m.Counters()
	if c.OffVUWords != 0 {
		t.Errorf("full-extent shift moved %d words off-VU", c.OffVUWords)
	}
	// Shift by subgrid extent: every box crosses.
	m.ResetCounters()
	g.CShift(AxisX, 4)
	c = m.Counters()
	if c.OffVUWords != total {
		t.Errorf("subgrid-extent shift: OffVUWords = %d, want %d", c.OffVUWords, total)
	}
}

// fillByCoord gives every box values that are a function of its coordinate
// alone and distinct across the grid: ForEachBox runs its body on one
// goroutine per VU, so the fill must share no state between boxes.
func fillByCoord(g *Grid3) {
	g.ForEachBox(func(c geom.Coord3, v []float64) {
		for i := range v {
			v[i] = float64((c.Z<<16|c.Y<<8|c.X)*len(v) + i)
		}
	})
}

// mismatches counts the boxes where a and b differ. The parallel bodies only
// count, atomically; reporting is the calling test goroutine's job.
func mismatches(a, b *Grid3) int64 {
	var bad atomic.Int64
	a.ForEachBox(func(c geom.Coord3, v []float64) {
		w := b.At(c)
		for i := range v {
			if v[i] != w[i] {
				bad.Add(1)
				return
			}
		}
	})
	return bad.Load()
}

func TestCShiftRoundTripIdentity(t *testing.T) {
	m := testMachine(t, 2)
	g := m.NewGrid3(8, 2)
	fillByCoord(g)
	d := g.CShift(AxisY, 3).CShift(AxisY, -3)
	if bad := mismatches(d, g); bad != 0 {
		t.Errorf("%d boxes corrupted by round-trip shifts", bad)
	}
}

func TestGridAdd(t *testing.T) {
	m := testMachine(t, 2)
	a := m.NewGrid3(4, 1)
	b := m.NewGrid3(4, 1)
	a.ForEachBox(func(c geom.Coord3, v []float64) { v[0] = 1 })
	b.ForEachBox(func(c geom.Coord3, v []float64) { v[0] = float64(c.X) })
	a.Add(b)
	want := m.NewGrid3(4, 1)
	want.ForEachBox(func(c geom.Coord3, v []float64) { v[0] = float64(1 + c.X) })
	if bad := mismatches(a, want); bad != 0 {
		t.Fatalf("Add wrong in %d boxes", bad)
	}
}

func TestOctantGatherScatter(t *testing.T) {
	m := testMachine(t, 2)
	child := m.NewGrid3(8, 1)
	child.ForEachBox(func(c geom.Coord3, v []float64) {
		v[0] = float64(c.X + 10*c.Y + 100*c.Z)
	})
	for oct := 0; oct < 8; oct++ {
		parent := m.NewGrid3(4, 1)
		OctantGather(RemapAliased, parent, child, oct)
		want := m.NewGrid3(4, 1)
		want.ForEachBox(func(p geom.Coord3, v []float64) {
			cc := p.Child(oct)
			v[0] = float64(cc.X + 10*cc.Y + 100*cc.Z)
		})
		if bad := mismatches(parent, want); bad != 0 {
			t.Fatalf("oct %d: gather wrong at %d parent boxes", oct, bad)
		}
	}
	// Scatter-add: child[child(p,oct)] += parent[p].
	parent := m.NewGrid3(4, 1)
	parent.ForEachBox(func(p geom.Coord3, v []float64) { v[0] = 1000 })
	before := child.At(geom.Coord3{X: 1, Y: 0, Z: 0})[0]
	OctantScatterAdd(RemapAliased, child, parent, 1) // oct 1: +X children
	if got := child.At(geom.Coord3{X: 1, Y: 0, Z: 0})[0]; got != before+1000 {
		t.Errorf("scatter-add: %g, want %g", got, before+1000)
	}
	if got := child.At(geom.Coord3{X: 0, Y: 0, Z: 0})[0]; got != 0 {
		t.Errorf("scatter-add touched wrong octant: %g", got)
	}
}

func TestOctantGatherLocalityCounts(t *testing.T) {
	// With >= 1 parent box per VU and matched layouts, parent-child
	// communication is VU-local: the embedding property of Section 3.1.
	m := testMachine(t, 2) // 8 VUs
	child := m.NewGrid3(16, 2)
	parent := m.NewGrid3(8, 2) // 512 parents over 8 VUs: 64 per VU
	off := OctantGather(RemapAliased, parent, child, 3)
	if off != 0 {
		t.Errorf("parent-child gather moved %d words off-VU, want 0", off)
	}
	// Near the root (fewer boxes than VUs) movement is unavoidable.
	m2 := testMachine(t, 64) // 256 VUs
	child2 := m2.NewGrid3(4, 2)
	parent2 := m2.NewGrid3(2, 2)
	off = OctantGather(RemapAliased, parent2, child2, 0)
	if off == 0 {
		t.Error("root-level gather reported zero off-VU words")
	}
}

func TestRemapSendChargesOverhead(t *testing.T) {
	m := testMachine(t, 2)
	src := m.NewGrid3(8, 4)
	dst := m.NewGrid3(8, 4)
	m.ResetCounters()
	Remap(RemapSend, dst, src, func(yield func(sc, dc geom.Coord3)) {
		for z := 0; z < 8; z++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					c := geom.Coord3{X: x, Y: y, Z: z}
					yield(c, c)
				}
			}
		}
	})
	send := m.Counters()
	m.ResetCounters()
	Remap(RemapAliased, dst, src, func(yield func(sc, dc geom.Coord3)) {
		for z := 0; z < 8; z++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					c := geom.Coord3{X: x, Y: y, Z: z}
					yield(c, c)
				}
			}
		}
	})
	aliased := m.Counters()
	// Identity remap: all local either way, but the send path pays the
	// general-addressing overhead — the effect Figure 7 measures.
	if send.CommCycles() <= 10*aliased.CommCycles()+aliased.CopyCycles() {
		t.Errorf("send cycles %.0f not >> aliased cycles %.0f",
			send.CommCycles(), aliased.CommCycles()+aliased.CopyCycles())
	}
}

func TestBroadcastCosts(t *testing.T) {
	m := testMachine(t, 64)
	m.ResetCounters()
	m.Broadcast(144, 0) // 12x12 matrix to all 256 VUs
	all := m.Counters().CommCycles()
	m.ResetCounters()
	m.Broadcast(144, 8) // grouped replication among 8 VUs
	grouped := m.Counters().CommCycles()
	if grouped >= all {
		t.Errorf("grouped broadcast (%.0f) not cheaper than full (%.0f)", grouped, all)
	}
}

func TestChargeComputeAndImbalance(t *testing.T) {
	m := testMachine(t, 2)
	m.ChargeCompute(0, 1000, 0.5)
	m.ChargeCompute(1, 1000, 1.0)
	if m.ComputeCycles(0) != 2000 || m.ComputeCycles(1) != 1000 {
		t.Errorf("cycles = %g, %g", m.ComputeCycles(0), m.ComputeCycles(1))
	}
	maxC, meanC := m.MaxComputeCycles()
	if maxC != 2000 {
		t.Errorf("max = %g", maxC)
	}
	if meanC != 3000/8.0 {
		t.Errorf("mean = %g", meanC)
	}
	if m.Counters().Flops != 2000 {
		t.Errorf("flops = %d", m.Counters().Flops)
	}
	m.ChargeCompute(2, 100, 0) // efficiency 0 treated as 1
	if m.ComputeCycles(2) != 100 {
		t.Errorf("eff=0 cycles = %g", m.ComputeCycles(2))
	}
}

func TestGemmEfficiencyShape(t *testing.T) {
	c := DefaultCostModel()
	e12 := c.GemmEfficiency(12)
	e72 := c.GemmEfficiency(72)
	if !(e12 > 0.6 && e12 < 0.8) {
		t.Errorf("GemmEfficiency(12) = %.3f, want ~0.74 band", e12)
	}
	if !(e72 > 0.8 && e72 < 0.9) {
		t.Errorf("GemmEfficiency(72) = %.3f, want ~0.85 band", e72)
	}
	if e72 <= e12 {
		t.Error("efficiency must increase with K")
	}
}

func TestSortByKeysSortsAndCounts(t *testing.T) {
	m := testMachine(t, 2)
	rng := rand.New(rand.NewSource(72))
	n := 1000
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(50))
		vals[i] = float64(keys[i])*1000 + float64(i%7)
	}
	a := m.NewArray1D(vals)
	m.ResetCounters()
	perm := SortByKeys(m, keys, a)
	for i := 1; i < n; i++ {
		if keys[perm[i-1]] > keys[perm[i]] {
			t.Fatal("not sorted")
		}
	}
	// Attribute array permuted consistently.
	for i := range a.Data {
		if int(a.Data[i]/1000) != int(keys[perm[i]]) {
			t.Fatalf("attribute not permuted at %d", i)
		}
	}
	// Stability: equal keys preserve original order.
	for i := 1; i < n; i++ {
		if keys[perm[i-1]] == keys[perm[i]] && perm[i-1] > perm[i] {
			t.Fatal("sort not stable")
		}
	}
	if m.Counters().SendCalls != 1 {
		t.Error("sort did not record a send")
	}
}

func TestArray1DLayout(t *testing.T) {
	m := testMachine(t, 2) // 8 VUs
	a := m.NewArray1D(make([]float64, 16))
	if a.Len() != 16 {
		t.Errorf("Len = %d", a.Len())
	}
	if a.VUOf(0) != 0 || a.VUOf(15) != 7 {
		t.Errorf("VUOf ends = %d, %d", a.VUOf(0), a.VUOf(15))
	}
}

func TestCountersSubAndSnapshot(t *testing.T) {
	m := testMachine(t, 2)
	g := m.NewGrid3(4, 1)
	before := m.Counters()
	g.CShift(AxisX, 1)
	after := m.Counters()
	d := after.Sub(before)
	if d.CShifts != 1 {
		t.Errorf("delta CShifts = %d", d.CShifts)
	}
	if d.CommCycles() <= 0 {
		t.Error("delta comm cycles not positive")
	}
}

func TestMachineString(t *testing.T) {
	m := testMachine(t, 4)
	if m.String() != "Machine(4 nodes x 4 VUs)" {
		t.Errorf("String = %q", m.String())
	}
}
