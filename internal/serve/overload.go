package serve

import (
	"context"
	"time"

	"nbody/internal/metrics"
	"nbody/internal/plan"
	"nbody/internal/resilience"
)

// This file is the server side of the overload-control design: the brownout
// request rewrite (degrade instead of reject while degradation still buys
// capacity) and the admission budget (shed what degradation cannot save).
// The two compose into the overload ladder: full fidelity -> browned-out
// fidelity -> shed with Retry-After -> queue-bound 429, and the load harness
// (internal/serve/loadgen + cmd/nbodyd -loadtest) measures that the ladder
// beats queue-until-504 on goodput and light-tenant tail latency.

// applyBrownout rewrites req to the brownout controller's current level,
// reporting the level and whether anything actually changed. Level 1 drops
// the accuracy preset one notch (accurate->balanced, balanced->fast); level
// 2 pins accuracy to fast and re-pins an over-deep hierarchy back to the
// planner's depth for the shape — the tuned (measured-best) depth when the
// shape has evidence, the analytic cost-model depth otherwise, so a
// brownout rewrite and an auto-depth resolution can never disagree about
// what "the right depth" is. Depth is only ever lowered toward that
// optimum — FMM cost is U-shaped in depth, so "shallower" is only cheaper
// when the caller pinned a depth beyond it. A request already at the floor
// passes through untagged: the client got exactly what it asked for.
func (s *Server) applyBrownout(req *SolveRequest, n int, dist string, sim bool) (level int, degraded bool) {
	if s.cfg.DisableBrownout {
		return 0, false
	}
	level = s.brown.Level()
	if level <= 0 {
		return 0, false
	}
	switch {
	case level >= 2:
		if req.Accuracy != "fast" {
			req.Accuracy = "fast"
			degraded = true
		}
		if opt := s.planner.DepthFor(plan.ShapeKey{N: n, Dist: dist, Accuracy: req.Accuracy}, req.Supernodes, sim); req.Depth > opt {
			req.Depth = opt
			degraded = true
		}
	default:
		switch req.Accuracy {
		case "accurate":
			req.Accuracy = "balanced"
			degraded = true
		case "balanced":
			req.Accuracy = "fast"
			degraded = true
		}
	}
	return level, degraded
}

// budgetFor builds the admission budget of one request: the planner's
// prediction for units units of key's work, plus the propagated deadline.
// The zero Budget (shedding disabled for this request) is returned when
// admission is off, the request carries no deadline, or the planner is not
// yet confident — a cold server must serve, not shed, until its calibration
// is backed by real measurements.
func (s *Server) budgetFor(ctx context.Context, key Key, units int) Budget {
	if s.cfg.DisableAdmission {
		return Budget{}
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return Budget{}
	}
	est, confident := s.planner.Estimate(key, units)
	if !confident || est <= 0 {
		return Budget{}
	}
	return Budget{Estimate: est, Deadline: deadline}
}

// observePressure feeds one dequeued request's queue delay to the brownout
// controller — the pressure signal that grows without bound exactly when
// offered load exceeds capacity.
func (s *Server) observePressure(queueWait time.Duration) {
	if !s.cfg.DisableBrownout {
		s.brown.Observe(queueWait)
	}
}

// OverloadMetrics is the overload-control section of /v1/metrics: what the
// admission and brownout layers are doing right now and have done so far.
type OverloadMetrics struct {
	AdmissionEnabled bool `json:"admission_enabled"`
	BrownoutEnabled  bool `json:"brownout_enabled"`
	// Counters are this server's overload events, read from their owners:
	// sheds from the dispatcher, raises and drops from the brownout
	// controller, browned responses from the server itself.
	Counters metrics.OverloadStats `json:"counters"`
	// Brownout is the controller snapshot: current level, smoothed
	// pressure, lifetime raises and drops.
	Brownout resilience.BrownoutStats `json:"brownout"`
	// EstimatorShapes / EstimatorScale / EstimatorObs describe the planner's
	// measured-cost ledger admission estimates from: distinct shapes with
	// measured EWMAs, the modeled-to-measured host calibration, and how many
	// observations back it.
	EstimatorShapes int     `json:"estimator_shapes"`
	EstimatorScale  float64 `json:"estimator_scale"`
	EstimatorObs    int64   `json:"estimator_obs"`
}

func (s *Server) readOverload() OverloadMetrics {
	shapes, scale, obs := s.planner.Calibration()
	disp, brown := s.disp.Stats(), s.brown.Stats()
	return OverloadMetrics{
		AdmissionEnabled: !s.cfg.DisableAdmission,
		BrownoutEnabled:  !s.cfg.DisableBrownout,
		Counters: metrics.OverloadStats{
			Shed:           disp.Shed,
			ShedStale:      disp.ShedStale,
			Browned:        s.events.Read().browned,
			BrownoutRaises: brown.Raises,
			BrownoutDrops:  brown.Drops,
		},
		Brownout:        brown,
		EstimatorShapes: shapes,
		EstimatorScale:  scale,
		EstimatorObs:    obs,
	}
}
