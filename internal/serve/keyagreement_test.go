package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"nbody"
	"nbody/internal/core"
	"nbody/internal/plan"
)

// TestShapeKeyAgreement is the dedupe guarantee of the plan subsystem: the
// plan cache, admission's cost estimate, and the planner all key on the one
// plan.Key a decoded request resolves to — for every decode path (solve and
// simulate, auto and pinned depth, every accuracy preset). Before the
// refactor the cache key and the estimator shape were separate structs
// re-deriving K from the accuracy string independently; this test pins the
// single-source-of-truth replacement.
func TestShapeKeyAgreement(t *testing.T) {
	srv, err := New(Config{Workers: 2, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sys := nbody.NewUniformSystem(2048, 7)
	body := func(depth int, accuracy string, steps int) []byte {
		req := map[string]any{
			"tenant":    "agree",
			"positions": positionsOf(sys),
			"charges":   sys.Charges,
			"accuracy":  accuracy,
			"depth":     depth,
		}
		if steps > 0 {
			req["steps"] = steps
			req["dt"] = 0.001
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	for _, tc := range []struct {
		name     string
		depth    int
		accuracy string
		sim      bool
	}{
		{"solve auto fast", 0, "fast", false},
		{"solve auto balanced", 0, "balanced", false},
		{"solve auto accurate", 0, "accurate", false},
		{"solve pinned", 4, "fast", false},
		{"simulate auto", 0, "fast", true},
		{"simulate pinned", 3, "accurate", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req *SolveRequest
			var n int
			if tc.sim {
				sreq, ssys, err := decodeSimulateRequest(bytes.NewReader(body(tc.depth, tc.accuracy, 4)), srv.limits())
				if err != nil {
					t.Fatal(err)
				}
				req, n = &sreq.SolveRequest, ssys.Len()
			} else {
				r, dsys, err := decodeSolveRequest(bytes.NewReader(body(tc.depth, tc.accuracy, 0)), srv.limits())
				if err != nil {
					t.Fatal(err)
				}
				req, n = r, dsys.Len()
			}

			// Decoding no longer resolves auto depth: that is the planner's
			// job, so the decoder cannot disagree with it.
			if req.Depth != tc.depth {
				t.Fatalf("decoder rewrote depth %d to %d", tc.depth, req.Depth)
			}

			key := srv.keyFor(req, n, plan.DistUniform, tc.sim)

			// One K derivation: the key's K is plan.AccuracyK of the shape's
			// accuracy — the same function the planner's cost shapes and its
			// tuned table go through.
			if key.Plan.K != plan.AccuracyK(tc.accuracy) {
				t.Errorf("key K = %d, plan.AccuracyK(%q) = %d", key.Plan.K, tc.accuracy, plan.AccuracyK(tc.accuracy))
			}
			// The planner observes and estimates under exactly the key's cost
			// shape.
			cs := key.CostShape()
			if cs.N != n || cs.Depth != key.Plan.Depth || cs.K != key.Plan.K || cs.Sim != tc.sim || cs.Dist != plan.DistUniform {
				t.Errorf("cost shape %+v does not project key %+v", cs, key)
			}
			// Depth resolution: pinned passes through verbatim; auto goes to
			// the planner, which (untuned, fast preset) must agree with the
			// classic heuristic the old decode path used.
			switch {
			case tc.depth > 0 && key.Plan.Depth != tc.depth:
				t.Errorf("pinned depth %d resolved to %d", tc.depth, key.Plan.Depth)
			case tc.depth == 0:
				want := srv.planner.DepthFor(key.Shape, req.Supernodes, tc.sim)
				if key.Plan.Depth != want {
					t.Errorf("auto depth %d, planner DepthFor %d", key.Plan.Depth, want)
				}
				if tc.accuracy == "fast" {
					if opt := core.OptimalDepth(n, 32); key.Plan.Depth != opt {
						t.Errorf("auto fast depth %d, classic OptimalDepth %d", key.Plan.Depth, opt)
					}
				}
			}
		})
	}
}

// positionsOf renders a system's positions in the wire format.
func positionsOf(sys *nbody.System) [][3]float64 {
	out := make([][3]float64, len(sys.Positions))
	for i, p := range sys.Positions {
		out[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return out
}

// TestEstimatorAccuracyK cross-checks the plan subsystem's preset->K
// mapping (the one every cost estimate keys on) against the root package's
// own accuracy estimator, so a re-tuned preset cannot silently skew every
// admission estimate.
func TestEstimatorAccuracyK(t *testing.T) {
	for name, acc := range map[string]nbody.Accuracy{
		"fast": nbody.Fast, "balanced": nbody.Balanced, "accurate": nbody.Accurate,
	} {
		est, err := nbody.EstimateAccuracy(nbody.Options{Accuracy: acc})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.AccuracyK(name); got != est.K {
			t.Errorf("plan.AccuracyK(%q) = %d, root package resolves K = %d", name, got, est.K)
		}
	}
	if got := plan.AccuracyK(""); got != plan.AccuracyK("fast") {
		t.Errorf("empty accuracy maps to K=%d, fast to %d; they must agree", got, plan.AccuracyK("fast"))
	}
}
