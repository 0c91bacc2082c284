package dp

import (
	"encoding/binary"
	"testing"

	"nbody/internal/geom"
)

// encode gives every box a value distinct from every other box's.
func encode(c geom.Coord3) float64 { return float64(c.X + 1000*c.Y + 1000000*c.Z) }

// FuzzGridIndexMath drives the grid addressing (layout split, At, CShift
// wraparound) with arbitrary machine shapes, extents, axes, and shift
// counts: every box must be addressable, hold its own value, and CShift
// must realize dst[c] = src[c+s] with circular wraparound on the shifted
// axis — the identity all four ghost strategies reduce to.
func FuzzGridIndexMath(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(0), int16(3))
	f.Add(uint8(3), uint8(3), uint8(2), int16(-5))
	f.Add(uint8(1), uint8(0), uint8(1), int16(0))
	f.Add(uint8(2), uint8(2), uint8(2), int16(1000))
	f.Fuzz(func(t *testing.T, nExp, nodesExp, axisRaw uint8, shiftRaw int16) {
		n := 1 << (1 + nExp%3)       // grid extent 2, 4, or 8
		nodes := 1 << (nodesExp % 4) // 1..8 nodes (x4 VUs)
		m, err := NewMachine(nodes, 4, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		g := m.NewGrid3(n, 1)
		g.ForEachBox(func(c geom.Coord3, v []float64) { v[0] = encode(c) })
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					c := geom.Coord3{X: x, Y: y, Z: z}
					if got := g.At(c)[0]; got != encode(c) {
						t.Fatalf("At(%v) = %g, want %g (layout %+v)", c, got, encode(c), g.Layout)
					}
				}
			}
		}

		axis := Axis(axisRaw % 3)
		s := int(shiftRaw)
		d := g.CShift(axis, s)
		mod := func(v int) int { return ((v % n) + n) % n }
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					c := geom.Coord3{X: x, Y: y, Z: z}
					src := c
					switch axis {
					case AxisX:
						src.X = mod(c.X + s)
					case AxisY:
						src.Y = mod(c.Y + s)
					default:
						src.Z = mod(c.Z + s)
					}
					if got := d.At(c)[0]; got != encode(src) {
						t.Fatalf("CShift(%v,%d): dst[%v] = %g, want src[%v] = %g",
							axis, s, c, got, src, encode(src))
					}
				}
			}
		}
	})
}

// FuzzSortByKeys drives the coordinate sort with arbitrary key bytes and
// machine sizes: the returned permutation must be a bijection (particle
// count conserved), keys must come out nondecreasing through it, and the
// attribute arrays must be reordered consistently with it.
func FuzzSortByKeys(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, nodesExp uint8) {
		nk := len(raw) / 8
		if nk > 4096 {
			nk = 4096
		}
		keys := make([]uint64, nk)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(raw[i*8:])
		}
		m, err := NewMachine(1<<(nodesExp%4), 4, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]float64, nk)
		for i := range orig {
			orig[i] = float64(i)
		}
		a := m.NewArray1D(append([]float64(nil), orig...))
		perm := SortByKeys(m, keys, a)
		if len(perm) != nk {
			t.Fatalf("perm length %d, want %d", len(perm), nk)
		}
		seen := make([]bool, nk)
		for i, p := range perm {
			if p < 0 || p >= nk || seen[p] {
				t.Fatalf("perm[%d] = %d is out of range or duplicated", i, p)
			}
			seen[p] = true
		}
		for i := 1; i < nk; i++ {
			if keys[perm[i-1]] > keys[perm[i]] {
				t.Fatalf("keys not sorted through perm at %d: %d > %d",
					i, keys[perm[i-1]], keys[perm[i]])
			}
		}
		for i, p := range perm {
			if a.Data[i] != orig[p] {
				t.Fatalf("attr[%d] = %g, want orig[perm[%d]] = %g", i, a.Data[i], i, orig[p])
			}
		}
	})
}

// FuzzOctantGather checks the parent-child remap index math for all remap
// kinds: gathering octant oct of a child grid must read exactly
// src[p.Child(oct)] into dst[p] for every parent box.
func FuzzOctantGather(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0))
	f.Add(uint8(7), uint8(2), uint8(1))
	f.Add(uint8(3), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, octRaw, nExp, nodesExp uint8) {
		oct := int(octRaw % 8)
		n := 1 << (1 + nExp%2) // parent extent 2 or 4, child 4 or 8
		m, err := NewMachine(1<<(nodesExp%3), 4, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		child := m.NewGrid3(2*n, 1)
		child.ForEachBox(func(c geom.Coord3, v []float64) { v[0] = encode(c) })
		for _, kind := range []RemapKind{RemapSend, RemapAliased} {
			parent := m.NewGrid3(n, 1)
			OctantGather(kind, parent, child, oct)
			for z := 0; z < n; z++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						p := geom.Coord3{X: x, Y: y, Z: z}
						want := encode(p.Child(oct))
						if got := parent.At(p)[0]; got != want {
							t.Fatalf("kind=%v oct=%d: parent[%v] = %g, want child[%v] = %g",
								kind, oct, p, got, p.Child(oct), want)
						}
					}
				}
			}
		}
	})
}
