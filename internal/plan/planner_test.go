package plan

import (
	"math/rand"
	"testing"
	"time"

	"nbody/internal/core"
	"nbody/internal/geom"
)

// TestAnalyticDepthMatchesOptimalDepth pins the compatibility contract the
// serve refactor leans on: for the fast preset (K = 12) the cost-model
// argmin reproduces the classic occupancy heuristic core.OptimalDepth(n, 32)
// across the admissible request range, so replacing the heuristic with the
// planner changes no existing auto-depth resolution. At higher K the model
// is allowed (and expected) to prefer a shallower hierarchy.
func TestAnalyticDepthMatchesOptimalDepth(t *testing.T) {
	p := NewPlanner(0)
	for _, n := range []int{1, 64, 512, 2048, 8192, 32768, 131072, 1 << 20} {
		want := core.OptimalDepth(n, 32)
		if got := p.AnalyticDepth(n, 12, false, DefaultMaxDepth); got != want {
			t.Errorf("AnalyticDepth(n=%d, k=12) = %d, OptimalDepth = %d", n, got, want)
		}
	}
	// K-awareness: the 98-point accurate preset must not be deeper than the
	// 12-point fast preset anywhere (its K^2 translations grow with the box
	// count; the near field does not).
	for _, n := range []int{2048, 32768, 131072} {
		fast := p.AnalyticDepth(n, 12, false, DefaultMaxDepth)
		accurate := p.AnalyticDepth(n, 98, false, DefaultMaxDepth)
		if accurate > fast {
			t.Errorf("n=%d: accurate depth %d deeper than fast depth %d", n, accurate, fast)
		}
	}
}

// TestResolveProvenance pins the three resolution sources and their
// counters: a pinned depth is honored verbatim, an untuned shape falls back
// to the analytic model, and a tuned shape answers from the table.
func TestResolveProvenance(t *testing.T) {
	p := NewPlanner(6)
	shape := ShapeKey{N: 32768, Dist: DistUniform, Accuracy: "fast"}

	pl, prov := p.Resolve(shape, Request{Depth: 5})
	if prov != ProvenancePinned || pl.Depth != 5 {
		t.Fatalf("pinned resolve: got depth %d provenance %s", pl.Depth, prov)
	}
	pl, prov = p.Resolve(shape, Request{})
	if prov != ProvenanceAnalytic {
		t.Fatalf("cold auto resolve: provenance %s, want analytic", prov)
	}
	if want := core.OptimalDepth(32768, 32); pl.Depth != want {
		t.Fatalf("cold auto resolve: depth %d, want %d", pl.Depth, want)
	}
	if pl.K != 12 {
		t.Fatalf("fast preset resolved K=%d, want 12", pl.K)
	}

	// Plant a tuned entry via two observations of a different depth.
	key := Key{Shape: shape, Plan: Plan{Depth: 2, K: 12}}
	p.Observe(key, 5*time.Millisecond)
	p.Observe(key, 5*time.Millisecond)
	pl, prov = p.Resolve(shape, Request{})
	if prov != ProvenanceTuned || pl.Depth != 2 {
		t.Fatalf("tuned resolve: got depth %d provenance %s", pl.Depth, prov)
	}

	c := p.Counters()
	if c.PlansPinned != 1 || c.PlansAnalytic != 1 || c.PlansTuned != 1 || c.TuneHits != 1 || c.TuneMisses != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestObserveRefinement pins the online tuning loop: measured observations
// claim the tuned entry once backed by enough evidence, a measurably faster
// depth takes it over, and a marginally faster one does not (hysteresis).
func TestObserveRefinement(t *testing.T) {
	p := NewPlanner(6)
	shape := ShapeKey{N: 8192, Dist: DistUniform, Accuracy: "fast"}
	keyAt := func(depth int) Key {
		return Key{Shape: shape, Plan: Plan{Depth: depth, K: 12}}
	}

	// One observation is not evidence.
	p.Observe(keyAt(3), 10*time.Millisecond)
	if _, ok := p.Tuned(shape, Request{}); ok {
		t.Fatal("tuned after a single observation")
	}
	p.Observe(keyAt(3), 10*time.Millisecond)
	tp, ok := p.Tuned(shape, Request{})
	if !ok || tp.Depth != 3 {
		t.Fatalf("tuned = %+v ok=%v, want depth 3", tp, ok)
	}

	// A 2% faster challenger stays behind the hysteresis margin.
	p.Observe(keyAt(4), 9800*time.Microsecond)
	p.Observe(keyAt(4), 9800*time.Microsecond)
	if tp, _ = p.Tuned(shape, Request{}); tp.Depth != 3 {
		t.Fatalf("marginal challenger re-tuned the shape to depth %d", tp.Depth)
	}
	// A 2x faster challenger wins.
	p.Observe(keyAt(2), 5*time.Millisecond)
	p.Observe(keyAt(2), 5*time.Millisecond)
	if tp, _ = p.Tuned(shape, Request{}); tp.Depth != 2 {
		t.Fatalf("faster challenger did not re-tune: depth %d", tp.Depth)
	}

	// Garbage measurements are dropped.
	p.Observe(keyAt(2), -time.Second)
	p.Observe(keyAt(2), 0)
	p.Observe(Key{Shape: ShapeKey{N: -1}, Plan: Plan{Depth: 3, K: 12}}, time.Millisecond)
	p.Observe(Key{Shape: shape, Plan: Plan{Depth: 0, K: 12}}, time.Millisecond)
	if tp, _ = p.Tuned(shape, Request{}); tp.Depth != 2 {
		t.Fatalf("garbage observations changed the tuned entry: %+v", tp)
	}
}

// TestTuneSearchAndWarmStart pins the explicit search and the warm-start
// contract: a cold Tune benches every candidate depth in the window around
// the analytic argmin and records the winner; a second Tune of the same
// shape (and a Tune on a fresh planner that loaded the saved store) answers
// from the table without calling bench at all — the "warm starts skip
// search entirely" property the CI smoke step asserts via these same
// counters.
func TestTuneSearchAndWarmStart(t *testing.T) {
	p := NewPlanner(5)
	// Analytic depth for N=4096 at K=12 is 2, so the ±2 search window
	// clamped to [2, 5] is exactly 2..4.
	shape := ShapeKey{N: 4096, Dist: DistUniform, Accuracy: "fast"}
	costs := map[int]time.Duration{2: 40 * time.Millisecond, 3: 10 * time.Millisecond, 4: 25 * time.Millisecond}
	var benched []int
	bench := func(pl Plan) (time.Duration, error) {
		benched = append(benched, pl.Depth)
		return costs[pl.Depth], nil
	}

	pl, trials, prov, err := p.Tune(shape, Request{}, bench)
	if err != nil {
		t.Fatal(err)
	}
	if prov != ProvenanceTuned || pl.Depth != 3 {
		t.Fatalf("cold tune: depth %d provenance %s, want 3/tuned", pl.Depth, prov)
	}
	if len(benched) != 3 || len(trials) != 3 {
		t.Fatalf("cold tune benched %v (trials %d), want all of 2..4", benched, len(trials))
	}
	if c := p.Counters(); c.Searches != 1 || c.TuneMisses != 1 {
		t.Fatalf("cold counters = %+v", c)
	}

	benched = nil
	pl, trials, prov, err = p.Tune(shape, Request{}, bench)
	if err != nil || prov != ProvenanceTuned || pl.Depth != 3 {
		t.Fatalf("warm tune: depth %d provenance %s err %v", pl.Depth, prov, err)
	}
	if len(benched) != 0 || trials != nil {
		t.Fatalf("warm tune ran a search: benched %v", benched)
	}
	if c := p.Counters(); c.Searches != 1 || c.TuneHits != 1 {
		t.Fatalf("warm counters = %+v", c)
	}

	// Persist, load into a fresh planner, and tune again: still no search.
	path := t.TempDir() + "/plans.nbp"
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q := NewPlanner(5)
	n, err := q.Load(path)
	if err != nil || n != 1 {
		t.Fatalf("Load = (%d, %v), want (1, nil)", n, err)
	}
	benched = nil
	pl, _, prov, err = q.Tune(shape, Request{}, bench)
	if err != nil || prov != ProvenanceTuned || pl.Depth != 3 || len(benched) != 0 {
		t.Fatalf("store-warmed tune: depth %d provenance %s benched %v err %v", pl.Depth, prov, benched, err)
	}
	if c := q.Counters(); c.Searches != 0 || c.TuneHits != 1 || c.StoreLoads != 1 {
		t.Fatalf("store-warmed counters = %+v", c)
	}

	// A pinned Tune never searches either.
	benched = nil
	pl, _, prov, err = q.Tune(shape, Request{Depth: 4}, bench)
	if err != nil || prov != ProvenancePinned || pl.Depth != 4 || len(benched) != 0 {
		t.Fatalf("pinned tune: depth %d provenance %s benched %v err %v", pl.Depth, prov, benched, err)
	}
}

// TestDepthForPrefersTuned pins the brownout fix (satellite: stale-depth
// pinning): DepthFor answers with the tuned depth when one exists, the
// analytic depth otherwise, and never bumps resolution counters.
func TestDepthForPrefersTuned(t *testing.T) {
	p := NewPlanner(6)
	shape := ShapeKey{N: 16384, Dist: DistUniform, Accuracy: "fast"}
	if got, want := p.DepthFor(shape, false, false), core.OptimalDepth(16384, 32); got != want {
		t.Fatalf("cold DepthFor = %d, want analytic %d", got, want)
	}
	key := Key{Shape: shape, Plan: Plan{Depth: 2, K: 12}}
	p.Observe(key, time.Millisecond)
	p.Observe(key, time.Millisecond)
	if got := p.DepthFor(shape, false, false); got != 2 {
		t.Fatalf("tuned DepthFor = %d, want 2", got)
	}
	if c := p.Counters(); c.PlansPinned+c.PlansAnalytic+c.PlansTuned+c.TuneHits+c.TuneMisses != 0 {
		t.Fatalf("DepthFor bumped resolution counters: %+v", c)
	}
}

// TestFingerprint pins the distribution fingerprint's buckets and its
// determinism: uniform positions read uniform, a tight Gaussian ball reads
// peaked, degenerate (coincident) positions read peaked rather than
// dividing by zero, and equal inputs always map to equal buckets.
func TestFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := make([]geom.Vec3, 8192)
	for i := range uniform {
		uniform[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	if got := Fingerprint(uniform); got != DistUniform {
		t.Errorf("uniform positions fingerprint %q", got)
	}

	ball := make([]geom.Vec3, 8192)
	for i := range ball {
		ball[i] = geom.Vec3{
			X: 0.5 + 0.02*rng.NormFloat64(),
			Y: 0.5 + 0.02*rng.NormFloat64(),
			Z: 0.5 + 0.02*rng.NormFloat64(),
		}
	}
	if got := Fingerprint(ball); got != DistPeaked {
		t.Errorf("tight Gaussian ball fingerprint %q", got)
	}

	same := make([]geom.Vec3, 128)
	for i := range same {
		same[i] = geom.Vec3{X: 0.25, Y: 0.25, Z: 0.25}
	}
	if got := Fingerprint(same); got != DistPeaked {
		t.Errorf("coincident positions fingerprint %q", got)
	}
	if Fingerprint(nil) != DistUniform {
		t.Error("empty system must fingerprint as uniform, the model default")
	}
	if a, b := Fingerprint(uniform), Fingerprint(uniform); a != b {
		t.Errorf("fingerprint not deterministic: %q then %q", a, b)
	}
}

// TestAccuracyKPresets pins the preset -> K mapping every cost shape keys on.
func TestAccuracyKPresets(t *testing.T) {
	for name, want := range map[string]int{"": 12, "fast": 12, "balanced": 50, "accurate": 98} {
		if got := AccuracyK(name); got != want {
			t.Errorf("AccuracyK(%q) = %d, want %d", name, got, want)
		}
	}
}
