package plan

import (
	"math"
	"testing"
	"time"
)

// tkey builds a plan Key the way a planner resolution does: accuracy
// resolved to K, depth and flags in the Plan.
func tkey(n, depth int, acc string, super, sim bool) Key {
	return Key{
		Shape: ShapeKey{N: n, Accuracy: acc},
		Sim:   sim,
		Plan:  Plan{Depth: depth, K: AccuracyK(acc), Supernodes: super},
	}
}

// TestEstimatorConvergence pins the EWMA contract the admission design
// leans on: after a fixed warm-up of observations at a stable cost, the
// planner's prediction is within 20% of the measured value — both when
// the observations agree with the model seed and when they are far from it.
func TestEstimatorConvergence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		measured time.Duration
	}{
		{"near-seed", 5 * time.Millisecond},
		{"seed-way-off", 800 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlanner(0)
			key := tkey(2048, 3, "fast", false, false)
			const warmup = 10
			for i := 0; i < warmup; i++ {
				p.Observe(key, tc.measured)
			}
			got, confident := p.Estimate(key, 1)
			if !confident {
				t.Fatalf("estimate not confident after %d observations", warmup)
			}
			lo := time.Duration(float64(tc.measured) * 0.8)
			hi := time.Duration(float64(tc.measured) * 1.2)
			if got < lo || got > hi {
				t.Fatalf("estimate %v outside 20%% of measured %v after %d observations", got, tc.measured, warmup)
			}
		})
	}
}

// TestEstimatorConfidenceGating pins the cold-server contract: no
// prediction is actionable until the shape has tuneMinObs direct
// observations or the host calibration has scaleMinObs, so a cold server can
// never shed on the uncalibrated model seed.
func TestEstimatorConfidenceGating(t *testing.T) {
	p := NewPlanner(0)
	key := tkey(4096, 3, "balanced", false, false)
	if _, confident := p.Estimate(key, 1); confident {
		t.Fatal("cold planner claims confidence")
	}
	p.Observe(key, 10*time.Millisecond)
	if _, confident := p.Estimate(key, 1); confident {
		t.Fatalf("confident after 1 observation, want >= %d", tuneMinObs)
	}
	p.Observe(key, 10*time.Millisecond)
	if _, confident := p.Estimate(key, 1); !confident {
		t.Fatalf("not confident after %d shape observations", tuneMinObs)
	}

	// A different shape has no direct observations: it goes through the
	// model seed, which becomes actionable only at the calibration threshold.
	other := tkey(512, 2, "fast", false, false)
	if _, confident := p.Estimate(other, 1); confident {
		t.Fatal("unseen shape confident before the host calibration is backed")
	}
	for i := int64(0); i < scaleMinObs; i++ {
		p.Observe(key, 10*time.Millisecond)
	}
	if _, confident := p.Estimate(other, 1); !confident {
		t.Fatalf("unseen shape not confident after %d calibration observations", scaleMinObs)
	}
}

// TestEstimatorRobustInputs throws the fuzz-seed adversarial corpus at the
// ledger synchronously: zero and huge N, absurd depths, garbage accuracy
// names, non-positive and overflowing measurements. Every Estimate must
// come back in [0, maxEstimate] and every Observe must leave the scale
// finite and positive.
func TestEstimatorRobustInputs(t *testing.T) {
	p := NewPlanner(0)
	keys := []Key{
		tkey(0, 0, "", false, false),
		tkey(-5, -3, "nonsense", false, false),
		tkey(math.MaxInt32, 16, "accurate", true, false),
		tkey(1<<30, 2, "fast", false, true),
		tkey(1, 99, "", false, false),
	}
	for _, key := range keys {
		for _, units := range []int{-1, 0, 1, math.MaxInt32} {
			d, _ := p.Estimate(key, units)
			if d < 0 || d > maxEstimate {
				t.Fatalf("Estimate(%+v, %d) = %v outside [0, %v]", key, units, d, maxEstimate)
			}
		}
		for _, m := range []time.Duration{-time.Second, 0, time.Nanosecond, maxEstimate, 1 << 62} {
			p.Observe(key, m)
		}
		_, scale, _ := p.Calibration()
		if !(scale > 0) || math.IsInf(scale, 0) {
			t.Fatalf("scale %v corrupted after observing %+v", scale, key)
		}
	}
}

// TestObserveFeedsOneLedger pins the single-owner contract: one Observe
// moves the estimate, the calibration count and — at tuneMinObs
// observations — the tuned entry together, and a shape never observed is
// answered by the cycle model times the calibration scale.
func TestObserveFeedsOneLedger(t *testing.T) {
	p := NewPlanner(6)
	key := tkey(8192, 3, "fast", false, false)
	key.Shape.Dist = DistUniform

	model := func(k Key) float64 {
		cs := k.CostShape()
		return p.cost.Seconds(p.cost.ModelSolveCycles(cs.N, cs.Depth, cs.K, cs.Supernodes))
	}
	sameDuration := func(got time.Duration, wantSec float64) bool {
		return math.Abs(got.Seconds()-wantSec) <= 1e-9+1e-12*wantSec
	}

	// Cold: model x seed scale, nothing measured, nothing tuned.
	cold, _ := p.Estimate(key, 1)
	if want := model(key) * scaleSeed; !sameDuration(cold, want) {
		t.Fatalf("cold estimate %v, want model x seed scale = %vs", cold, want)
	}
	if shapes, scale, obs := p.Calibration(); shapes != 0 || scale != scaleSeed || obs != 0 {
		t.Fatalf("cold calibration = (%d, %v, %d)", shapes, scale, obs)
	}

	const measured = 40 * time.Millisecond
	p.Observe(key, measured)
	if got, confident := p.Estimate(key, 1); !sameDuration(got, measured.Seconds()) || confident {
		t.Fatalf("after one Observe: estimate %v (confident=%v), want %v and not yet confident", got, confident, measured)
	}
	if got, _ := p.Estimate(key, 5); !sameDuration(got, 5*measured.Seconds()) {
		t.Fatalf("5 units estimated at %v, want %v", got, 5*measured)
	}
	shapes, scale, obs := p.Calibration()
	if shapes != 1 || obs != 1 || scale == scaleSeed {
		t.Fatalf("after one Observe: calibration = (%d, %v, %d), want one shape, one observation, a moved scale", shapes, scale, obs)
	}
	if _, ok := p.Tuned(key.Shape, Request{}); ok {
		t.Fatal("tuned after a single observation")
	}

	p.Observe(key, measured)
	if _, confident := p.Estimate(key, 1); !confident {
		t.Fatal("estimate not confident at the observation count that promotes the tuned entry")
	}
	tp, ok := p.Tuned(key.Shape, Request{})
	if !ok || tp.Depth != 3 || tp.Obs != 2 || tp.Seconds != measured.Seconds() {
		t.Fatalf("after two Observes: tuned = %+v ok=%v, want depth 3 backed by both", tp, ok)
	}
	if _, _, obs := p.Calibration(); obs != 2 {
		t.Fatalf("calibration observations = %d, want 2", obs)
	}

	// An unseen shape: the cycle model times the scale those two
	// observations left behind.
	other := tkey(2048, 2, "balanced", false, true)
	_, scale, _ = p.Calibration()
	if got, _ := p.Estimate(other, 1); !sameDuration(got, model(other)*scale) {
		t.Fatalf("unseen shape estimated at %v, want model x scale = %vs", got, model(other)*scale)
	}
}

// FuzzEstimator fuzzes the cost ledger with adversarial shapes and
// measurements: whatever a request or a broken clock feeds it, every
// estimate must stay in [0, maxEstimate] (no negative or overflowed
// prediction can ever reach the shed comparison), the host calibration scale
// must stay finite and positive, and the admission arithmetic
// (wait + estimate vs deadline) must not wrap.
func FuzzEstimator(f *testing.F) {
	// Seed corpus: zero and huge N, absurd depths and deadlines, garbage
	// accuracy selectors, overflowing measurements — the shapes the issue
	// names plus the boundary cases around them.
	f.Add(0, 0, "", false, false, 1, int64(0), int64(0))
	f.Add(-1, -7, "nonsense", true, true, -3, int64(-5), int64(-1))
	f.Add(1<<30, 16, "accurate", true, false, 1, int64(1)<<62, int64(1))
	f.Add(math.MaxInt32, 99, "fast", false, true, math.MaxInt32, int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(768, 3, "balanced", false, false, 1, int64(5*time.Millisecond), int64(time.Second))
	f.Add(32768, 4, "accurate", true, false, 8, int64(200*time.Millisecond), int64(time.Millisecond))
	f.Add(1, 2, "fast", false, false, 0, int64(time.Nanosecond), int64(50*time.Millisecond))

	f.Fuzz(func(t *testing.T, n, depth int, accuracy string, supernodes, sim bool, units int, measuredNS, deadlineNS int64) {
		p := NewPlanner(0)
		key := tkey(n, depth, accuracy, supernodes, sim)
		perUnit := time.Duration(measuredNS)
		if units > 1 {
			perUnit /= time.Duration(units)
		}
		for i := 0; i < 3; i++ {
			p.Observe(key, perUnit)
		}
		est, _ := p.Estimate(key, units)
		if est < 0 || est > maxEstimate {
			t.Fatalf("Estimate(%+v, %d) = %v outside [0, %v]", key, units, est, maxEstimate)
		}
		if _, scale, _ := p.Calibration(); !(scale > 0) || math.IsInf(scale, 0) {
			t.Fatalf("calibration scale corrupted to %v", scale)
		}
		// The admission predicate's arithmetic: predicted completion must not
		// wrap negative however absurd the inputs, because a wrapped value
		// would bypass the deadline comparison entirely.
		wait := 10 * time.Minute // worst realistic backlog the clamp allows
		if predicted := wait + est; predicted < 0 {
			t.Fatalf("predicted completion wrapped: wait %v + est %v = %v", wait, est, predicted)
		}
	})
}
