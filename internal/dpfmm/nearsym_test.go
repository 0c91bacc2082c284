package dpfmm

import (
	"math"
	"math/rand"
	"testing"

	"nbody/internal/core"
	"nbody/internal/dp"
	"nbody/internal/geom"
	"nbody/internal/tree"
)

func TestHalfSnakeCellsCoverHalfCube(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		cells := halfSnakeCells(d)
		want := ((2*d+1)*(2*d+1)*(2*d+1) - 1) / 2
		if len(cells) != want {
			t.Fatalf("d=%d: %d cells, want %d", d, len(cells), want)
		}
		seen := map[geom.Coord3]bool{}
		walk := 0
		prev := geom.Coord3{}
		for _, c := range cells {
			if seen[c] {
				t.Fatalf("d=%d: duplicate cell %v", d, c)
			}
			seen[c] = true
			neg := geom.Coord3{X: -c.X, Y: -c.Y, Z: -c.Z}
			if seen[neg] {
				t.Fatalf("d=%d: both %v and its negation visited", d, c)
			}
			if c == (geom.Coord3{}) || c.ChebDist(geom.Coord3{}) > d {
				t.Fatalf("d=%d: cell %v outside half cube", d, c)
			}
			walk += abs(c.X-prev.X) + abs(c.Y-prev.Y) + abs(c.Z-prev.Z)
			prev = c
		}
		// Shift economy: rows are unit-stepped; only slab transitions may
		// need a few extra moves. For d=2 this is the paper's "62 single
		// step CSHIFTs" walk (plus slab hops).
		if walk > len(cells)+8*d {
			t.Errorf("d=%d: walk length %d for %d cells — not shift-economical", d, walk, len(cells))
		}
		// Together with negations the cells cover the whole punctured cube.
		full := map[geom.Coord3]bool{}
		for c := range seen {
			full[c] = true
			full[geom.Coord3{X: -c.X, Y: -c.Y, Z: -c.Z}] = true
		}
		if len(full) != 2*want {
			t.Fatalf("d=%d: half + negations cover %d, want %d", d, len(full), 2*want)
		}
	}
}

func TestHalfSnakeMatchesTreeHalfOffsets(t *testing.T) {
	cells := halfSnakeCells(2)
	// One representative per symmetric pair, whichever the snake picked: with
	// their negations the cells are exactly the tree's near field.
	covered := map[geom.Coord3]bool{}
	for _, c := range cells {
		covered[c] = true
		covered[geom.Coord3{X: -c.X, Y: -c.Y, Z: -c.Z}] = true
	}
	ref := tree.NearOffsets(2)
	if len(covered) != len(ref) {
		t.Fatalf("half snake and its negations cover %d offsets, want %d", len(covered), len(ref))
	}
	for _, o := range ref {
		if !covered[o] {
			t.Fatalf("offset %v not covered by half snake", o)
		}
	}
}

func TestSymmetricNearFieldMatchesOneSided(t *testing.T) {
	pos, q := uniformParticles(rand.New(rand.NewSource(101)), 900)
	cfg := core.Config{Degree: 5, Depth: 3}

	run := func(oneSided bool) ([]float64, dp.Counters) {
		m := newTestMachine(t, 4)
		s, err := NewSolver(m, unitBox(), cfg, DirectAliased)
		if err != nil {
			t.Fatal(err)
		}
		s.OneSidedNear = oneSided
		before := m.Counters()
		phi, err := s.Potentials(pos, q)
		if err != nil {
			t.Fatal(err)
		}
		return phi, m.Counters().Sub(before)
	}
	phiSym, cSym := run(false)
	phiOne, cOne := run(true)
	for i := range phiSym {
		if math.Abs(phiSym[i]-phiOne[i]) > 1e-9*(1+math.Abs(phiOne[i])) {
			t.Fatalf("symmetric/one-sided mismatch at %d: %g vs %g", i, phiSym[i], phiOne[i])
		}
	}
	// The symmetric walk halves the near-field arithmetic. Near-field
	// flops dominate total flops at this configuration, so total flops
	// must drop noticeably.
	if cSym.Flops >= cOne.Flops {
		t.Errorf("symmetric flops %d not below one-sided %d", cSym.Flops, cOne.Flops)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
