package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nbody/internal/blas"
	"nbody/internal/geom"
	"nbody/internal/sphere"
	"nbody/internal/tree"
)

// These tests verify the translation operators in isolation — the algebraic
// chain P2O -> T1 -> T2 -> T3 -> L2P against direct evaluation — which is
// the correctness core of the whole method (and the place the T2 offset
// sign bug once hid; see git history of matrices.go).

func chainConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := Config{Degree: 11, Depth: 3}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// randomCharges places charges in the child box with octant oct of a unit
// parent box centered at origin.
func randomChargesInChild(rng *rand.Rand, oct int) ([]geom.Vec3, []float64) {
	child := geom.Box3{Center: geom.Vec3{}, Side: 2}.Child(oct) // side-1 child
	var pos []geom.Vec3
	var q []float64
	for i := 0; i < 15; i++ {
		pos = append(pos, geom.Vec3{
			X: child.Center.X + (rng.Float64()-0.5)*0.999,
			Y: child.Center.Y + (rng.Float64()-0.5)*0.999,
			Z: child.Center.Z + (rng.Float64()-0.5)*0.999,
		})
		q = append(q, rng.Float64())
	}
	return pos, q
}

func sampleOuter(rule *sphere.Rule, center geom.Vec3, a float64, pos []geom.Vec3, q []float64) []float64 {
	g := make([]float64, rule.K())
	for i, s := range rule.Points {
		p := center.Add(s.Scale(a))
		var v float64
		for j := range pos {
			v += q[j] / p.Dist(pos[j])
		}
		g[i] = v
	}
	return g
}

func TestT1ChainMatchesDirect(t *testing.T) {
	// Child outer -> (T1) -> parent outer, evaluated far away, must match
	// the direct sum.
	cfg := chainConfig(t)
	ts := NewTranslationSet(cfg)
	rng := rand.New(rand.NewSource(131))
	for oct := 0; oct < 8; oct++ {
		pos, q := randomChargesInChild(rng, oct)
		child := geom.Box3{Center: geom.Vec3{}, Side: 2}.Child(oct)
		gc := sampleOuter(cfg.Rule, child.Center, cfg.RadiusRatio, pos, q)
		gp := make([]float64, ts.K)
		// Parent box side 2 centered at origin; T1 matrices are in
		// child-side units, matching this geometry exactly.
		for i := range gp {
			gp[i] = 0
		}
		blas.DgemvT(ts.T1[oct], gc, gp)
		// Evaluate the parent outer far away (outside parent sphere).
		x := geom.Vec3{X: 7, Y: -5, Z: 6}
		got := EvalOuter(cfg.Rule, cfg.M, geom.Vec3{}, 2*cfg.RadiusRatio, gp, x)
		var want float64
		for j := range pos {
			want += q[j] / x.Dist(pos[j])
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-4 {
			t.Errorf("oct %d: T1 chain error %.2e", oct, rel)
		}
	}
}

func TestT2ChainMatchesDirect(t *testing.T) {
	// Source outer -> (T2 at a two-separation offset) -> target inner,
	// evaluated inside the target box.
	cfg := chainConfig(t)
	ts := NewTranslationSet(cfg)
	rng := rand.New(rand.NewSource(132))
	offsets := []geom.Coord3{{X: 3, Y: 0, Z: 0}, {X: -3, Y: 2, Z: -1}, {X: 4, Y: 4, Z: 4}, {X: 0, Y: 0, Z: -5}}
	for _, o := range offsets {
		// Source box side 1 at origin; target at -o (source = target + o).
		var pos []geom.Vec3
		var q []float64
		for i := 0; i < 12; i++ {
			pos = append(pos, geom.Vec3{
				X: (rng.Float64() - 0.5) * 0.999,
				Y: (rng.Float64() - 0.5) * 0.999,
				Z: (rng.Float64() - 0.5) * 0.999,
			})
			q = append(q, rng.Float64()*2-1)
		}
		gs := sampleOuter(cfg.Rule, geom.Vec3{}, cfg.RadiusRatio, pos, q)
		gt := make([]float64, ts.K)
		ts.ApplyT2(o, gs, gt)
		tc := geom.Vec3{X: -float64(o.X), Y: -float64(o.Y), Z: -float64(o.Z)}
		for trial := 0; trial < 10; trial++ {
			x := tc.Add(geom.Vec3{
				X: (rng.Float64() - 0.5) * 0.9,
				Y: (rng.Float64() - 0.5) * 0.9,
				Z: (rng.Float64() - 0.5) * 0.9,
			})
			got := evalPot(cfg.Rule, cfg.M, tc, cfg.RadiusRatio, gt, x)
			if want := evalInner(cfg.Rule, cfg.M, tc, cfg.RadiusRatio, gt, x); math.Abs(got-want) > oracleBound*(1+math.Abs(want)) {
				t.Errorf("offset %v at %v: EvalLocal %v, trig-form oracle %v", o, x, got, want)
			}
			var want float64
			for j := range pos {
				want += q[j] / x.Dist(pos[j])
			}
			if rel := math.Abs(got-want) / (1 + math.Abs(want)); rel > 2e-3 {
				t.Errorf("offset %v: T2 chain error %.2e at %v", o, rel, x)
			}
		}
	}
}

func TestT3ChainPreservesField(t *testing.T) {
	// A smooth far field sampled on the parent inner sphere, shifted to a
	// child with T3, must evaluate to the same values inside the child.
	cfg := chainConfig(t)
	ts := NewTranslationSet(cfg)
	rng := rand.New(rand.NewSource(133))
	// Far sources well outside the parent sphere.
	var pos []geom.Vec3
	var q []float64
	for i := 0; i < 10; i++ {
		dir := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Normalize()
		pos = append(pos, dir.Scale(8+4*rng.Float64()))
		q = append(q, rng.Float64())
	}
	truePot := func(x geom.Vec3) float64 {
		var v float64
		for j := range pos {
			v += q[j] / x.Dist(pos[j])
		}
		return v
	}
	// Parent inner values (parent box side 2 at origin, radius 2*ratio).
	gp := make([]float64, ts.K)
	for i, s := range cfg.Rule.Points {
		gp[i] = truePot(s.Scale(2 * cfg.RadiusRatio))
	}
	for oct := 0; oct < 8; oct++ {
		gc := make([]float64, ts.K)
		blas.DgemvT(ts.T3[oct], gp, gc)
		child := geom.Box3{Center: geom.Vec3{}, Side: 2}.Child(oct)
		for trial := 0; trial < 8; trial++ {
			x := child.Center.Add(geom.Vec3{
				X: (rng.Float64() - 0.5) * 0.9,
				Y: (rng.Float64() - 0.5) * 0.9,
				Z: (rng.Float64() - 0.5) * 0.9,
			})
			got := evalPot(cfg.Rule, cfg.M, child.Center, cfg.RadiusRatio, gc, x)
			if want := evalInner(cfg.Rule, cfg.M, child.Center, cfg.RadiusRatio, gc, x); math.Abs(got-want) > oracleBound*(1+math.Abs(want)) {
				t.Errorf("oct %d at %v: EvalLocal %v, trig-form oracle %v", oct, x, got, want)
			}
			want := truePot(x)
			if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-4 {
				t.Errorf("oct %d: T3 chain error %.2e", oct, rel)
			}
		}
	}
}

func TestPartitionProperties(t *testing.T) {
	h := mustHierarchy(t)
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		pos := make([]geom.Vec3, n)
		for i := range pos {
			pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
		p := NewPartition(h, pos)
		// Perm is a permutation of [0, n).
		seen := make([]bool, n)
		for _, i := range p.Perm {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		// Every particle is in the box the partition says it is.
		grid := p.Grid
		for b := 0; b+1 < len(p.Start); b++ {
			c := geom.CoordFromIndex(b, grid)
			for _, i := range p.Perm[p.Start[b]:p.Start[b+1]] {
				if h.LeafOf(pos[i]) != c {
					return false
				}
			}
		}
		// Counts are consistent.
		total := 0
		for b := 0; b+1 < len(p.Start); b++ {
			total += p.Count(geom.CoordFromIndex(b, grid))
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func mustHierarchy(t *testing.T) tree.Hierarchy {
	t.Helper()
	h, err := tree.NewHierarchy(unitBox(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
