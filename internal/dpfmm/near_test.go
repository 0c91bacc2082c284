package dpfmm

import (
	"math"
	"math/rand"
	"testing"

	"nbody/internal/core"
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

// plummerParticles returns an n-body Plummer sphere truncated at 8 scale
// lengths and rescaled into the unit cube: a few leaf boxes at the centre
// hold most particles, so intra-box pairs dominate the near field.
func plummerParticles(rng *rand.Rand, n int) ([]geom.Vec3, []float64) {
	const maxR = 8.0
	pos := make([]geom.Vec3, n)
	q := make([]float64, n)
	for i := range pos {
		r := maxR
		for r >= maxR {
			r = 1 / math.Sqrt(math.Pow(rng.Float64(), -2.0/3.0)-1)
		}
		z := 2*rng.Float64() - 1
		az := 2 * math.Pi * rng.Float64()
		sxy := math.Sqrt(1 - z*z)
		pos[i] = geom.Vec3{X: (r*sxy*math.Cos(az) + maxR) / (2 * maxR),
			Y: (r*sxy*math.Sin(az) + maxR) / (2 * maxR), Z: (r*z + maxR) / (2 * maxR)}
		q[i] = 1 / float64(n)
	}
	return pos, q
}

// TestNearPairsAgreeAcrossSolvers checks that the near field evaluates every
// unordered pair once in both kinds of solve: a potential solve and a force
// solve on the simulated machine count exactly the pairs of the
// shared-memory solver's symmetric sweep, on a uniform and on a clustered
// system.
func TestNearPairsAgreeAcrossSolvers(t *testing.T) {
	cfg := core.Config{Degree: 5, Depth: 3}
	uniPos, uniQ := uniformParticles(rand.New(rand.NewSource(101)), 900)
	plumPos, plumQ := plummerParticles(rand.New(rand.NewSource(102)), 900)
	for _, tc := range []struct {
		name string
		pos  []geom.Vec3
		q    []float64
	}{{"uniform", uniPos, uniQ}, {"plummer", plumPos, plumQ}} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := core.NewSolver(unitBox(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := accelerations(ref, tc.pos, tc.q); err != nil {
				t.Fatal(err)
			}
			want := ref.Stats().NearPairs
			for _, force := range []bool{false, true} {
				s, err := NewSolver(newTestMachine(t, 4), unitBox(), cfg, LinearizedAliased)
				if err != nil {
					t.Fatal(err)
				}
				if force {
					_, _, err = accelerations(s, tc.pos, tc.q)
				} else {
					_, err = potentials(s, tc.pos, tc.q)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := s.Stats().NearPairs; got != want {
					t.Errorf("force=%v: %d near pairs, shared-memory solver %d", force, got, want)
				}
			}
		})
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
