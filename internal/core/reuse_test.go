package core

import (
	"math"
	"math/rand"
	"testing"
)

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
