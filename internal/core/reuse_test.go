package core

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestMirrorPlanesStaggered pins the layout of the eight box-sorted mirror
// planes (DESIGN.md §5 has why): one allocation carved at a stride of N
// rounded up to 512 doubles plus 64, so that their starts are pairwise at
// least 256 B apart mod 4 KiB, and a second solve at the same N runs on the
// same planes.
func TestMirrorPlanesStaggered(t *testing.T) {
	for _, np := range []int{1, 100, 512, 4096} {
		pos, q := uniformParticles(rand.New(rand.NewSource(88)), np)
		s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 3})
		if err != nil {
			t.Fatal(err)
		}
		starts := func() (a [8]uintptr) {
			for k, p := range [][]float64{s.xs, s.ys, s.zs, s.qS, s.phiS, s.gx, s.gy, s.gz} {
				if len(p) != np {
					t.Fatalf("N=%d: plane %d holds %d elements", np, k, len(p))
				}
				a[k] = uintptr(unsafe.Pointer(unsafe.SliceData(p)))
			}
			return a
		}
		if _, _, err := accelerations(s, pos, q); err != nil {
			t.Fatal(err)
		}
		first := starts()
		stride := uintptr(8 * ((np+511)&^511 + 64))
		for k, a := range first {
			if a != first[0]+uintptr(k)*stride {
				t.Errorf("N=%d: plane %d starts %d B after plane 0, want %d: not carved from one allocation", np, k, a-first[0], uintptr(k)*stride)
			}
			for j := range k {
				if d := (a - first[j]) % 4096; min(d, 4096-d) < 256 {
					t.Errorf("N=%d: planes %d and %d start %d B apart mod 4 KiB", np, j, k, min(d, 4096-d))
				}
			}
		}
		if _, _, err := accelerations(s, pos, q); err != nil {
			t.Fatal(err)
		}
		if starts() != first {
			t.Errorf("N=%d: a second solve moved the mirror planes", np)
		}
	}
}

// TestRepeatedSolvesBitwiseIdentical guards the Solver reuse contract:
// with all traversal plans, expansion grids, and scratch hoisted into the
// Solver, consecutive solves on the same inputs must be bitwise
// reproducible — deterministic chunk boundaries, serial offset application,
// and the packed GEMM's fixed reduction order leave no source of run-to-run
// float variation.
func TestRepeatedSolvesBitwiseIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"aggregated", Config{Degree: 5, Depth: 3}},
		{"unaggregated", Config{Degree: 5, Depth: 3, DisableAggregation: true}},
		{"supernodes", Config{Degree: 7, Depth: 3, Supernodes: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			pos, q := uniformParticles(rng, 2048)
			s, err := NewSolver(unitBox(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			phi1, err := potentials(s, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			phi2, err := potentials(s, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range phi1 {
				if phi1[i] != phi2[i] {
					t.Fatalf("potential %d differs across solves: %g vs %g", i, phi1[i], phi2[i])
				}
			}

			// A solve into a buffer still holding garbage reproduces a fresh one
			// bitwise.
			phi3 := make([]float64, len(pos))
			for i := range phi3 {
				phi3[i] = math.NaN()
			}
			if err := s.Solve(nil, pos, q, phi3, nil); err != nil {
				t.Fatal(err)
			}
			for i := range phi1 {
				if phi1[i] != phi3[i] {
					t.Fatalf("solve into a used buffer: potential %d %g, fresh %g", i, phi3[i], phi1[i])
				}
			}

			p1, a1, err := accelerations(s, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			p2, a2, err := accelerations(s, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("acceleration-solve potential %d differs: %g vs %g", i, p1[i], p2[i])
				}
				if a1[i] != a2[i] {
					t.Fatalf("acceleration %d differs across solves: %v vs %v", i, a1[i], a2[i])
				}
			}
		})
	}
}
