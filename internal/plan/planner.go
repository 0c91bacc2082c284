package plan

import (
	"fmt"
	"math"
	"sync"
	"time"

	"nbody/internal/dp"
	"nbody/internal/metrics"
)

// DefaultMaxDepth bounds the depths the planner considers when the caller
// does not impose its own cap (the serve layer passes its MaxDepth).
const DefaultMaxDepth = 8

// tuneAlpha weights each measured observation in the per-configuration
// EWMAs; tuneSwitchMargin is the hysteresis a challenger depth must clear
// before online refinement re-tunes a shape (a 2% jitter win must not flap
// the plan cache between two depths).
const (
	tuneAlpha        = 0.3
	tuneSwitchMargin = 0.95
	// tuneMinObs is the number of measured observations a configuration
	// needs before its EWMA is trusted: by online refinement to promote it,
	// and by Estimate to call its prediction confident.
	tuneMinObs = 2
	// tuneSearchRadius bounds the explicit search to a window around the
	// analytic argmin: the cost is U-shaped in depth, so candidates far
	// from the model's minimum only burn time (a depth-8 bench of a small
	// system builds a 16M-box tree to confirm what the model already knew).
	tuneSearchRadius = 2

	// scaleAlpha weights each observation in the host calibration — gentler
	// than tuneAlpha, because the scale aggregates heterogeneous shapes.
	// scaleSeed assumes a host a few hundred times faster than one 4-VU
	// CM-5E node, the right order of magnitude for one modern multicore
	// socket; scaleMinObs is how many observations the calibration needs
	// before a model-seeded estimate of an unseen shape is confident.
	scaleAlpha  = 0.1
	scaleSeed   = 1.0 / 250
	scaleMinObs = 8
	// maxEstimate clamps every prediction and every accepted measurement:
	// no admissible request is slower than this, and an overflowed model
	// must not poison deadline arithmetic.
	maxEstimate = 10 * time.Minute
)

// Request is what a caller knows when asking for a Plan: the knobs it wants
// to pin and the limits it operates under. The zero value asks for a fully
// automatic resolution.
type Request struct {
	// Depth > 0 pins the hierarchy depth: the planner honors it verbatim
	// (ProvenancePinned) — a caller that asked for a depth gets that depth.
	Depth int
	// Supernodes and Sim are honored, never tuned: flipping either changes
	// the result bits, which is the caller's decision, not the planner's.
	Supernodes bool
	Sim        bool
	// Ladder passes through into the Plan.
	Ladder string
	// MaxDepth caps the depth of automatic resolutions (0 = the planner's
	// own bound).
	MaxDepth int
}

// tuneKey is the tuned-table key: a CostShape minus the depth — the depth
// is the quantity being tuned.
type tuneKey struct {
	N          int
	Dist       string
	K          int
	Dims       int
	Supernodes bool
	Sim        bool
}

func tuneKeyOf(shape ShapeKey, req Request) tuneKey {
	return tuneKey{
		N:          shape.N,
		Dist:       shape.Dist,
		K:          AccuracyK(shape.Accuracy),
		Dims:       shape.Dims,
		Supernodes: req.Supernodes,
		Sim:        req.Sim,
	}
}

// TunedPlan is one tuned-table entry: the measured-best depth for a shape
// and the evidence behind it.
type TunedPlan struct {
	Depth   int
	Seconds float64 // measured seconds per solve at Depth (EWMA)
	Obs     int64   // observations backing Seconds
}

// Trial is one candidate configuration's measured cost during an explicit
// search (Tune), reported so sweeps can tabulate the whole search.
type Trial struct {
	Depth    int
	Measured time.Duration
	// ModelNS is the analytic prediction for the candidate, for
	// model-vs-measured comparison in experiment tables.
	ModelNS int64
}

// obsEwma is one measured configuration's running cost estimate.
type obsEwma struct {
	ewma float64
	obs  int64
}

// Planner predicts the best Plan per shape, and what running it will cost.
// Resolution has three sources in priority order: a caller-pinned depth is
// honored verbatim; a tuned entry (from an explicit Tune search, online
// Observe refinement, or a loaded store) answers automatic requests for
// shapes with measured evidence; and the analytic cost model (dp.CostModel
// argmin over depth) answers everything else.
//
// The planner is also the one ledger of measured solve cost: every Observe
// lands in one per-shape EWMA that the tuned table is promoted from and that
// Estimate answers from, and refines one host calibration scale — itself an
// EWMA over the measured/modeled ratio of every observation — that maps the
// cycle model's CM-5E seconds onto this machine's wall clock for shapes not
// seen yet. The paper predicts depth and time from one cost model; so does
// this. All methods are safe for concurrent use.
type Planner struct {
	cost     dp.CostModel
	maxDepth int

	mu       sync.Mutex
	measured map[CostShape]*obsEwma
	tuned    map[tuneKey]*TunedPlan
	scale    float64 // modeled seconds -> measured host seconds
	scaleObs int64
	counters metrics.PlannerStats
}

// NewPlanner builds a planner considering depths 2..maxDepth for automatic
// resolutions (maxDepth < 2 selects DefaultMaxDepth).
func NewPlanner(maxDepth int) *Planner {
	if maxDepth < 2 {
		maxDepth = DefaultMaxDepth
	}
	return &Planner{
		cost:     dp.DefaultCostModel(),
		maxDepth: maxDepth,
		measured: make(map[CostShape]*obsEwma),
		tuned:    make(map[tuneKey]*TunedPlan),
		scale:    scaleSeed,
	}
}

// planFor assembles the Plan value shared by every resolution path.
func planFor(shape ShapeKey, req Request, depth int) Plan {
	return Plan{
		Depth:      depth,
		K:          AccuracyK(shape.Accuracy),
		Supernodes: req.Supernodes,
		Ladder:     req.Ladder,
	}
}

// depthCap resolves the effective depth bound of a request.
func (p *Planner) depthCap(req Request) int {
	if req.MaxDepth >= 2 && req.MaxDepth < p.maxDepth {
		return req.MaxDepth
	}
	return p.maxDepth
}

// AnalyticDepth returns the cost model's best depth for the shape: the
// argmin of ModelSolveCycles over 2..maxDepth. For the fast preset (K = 12)
// this coincides with the classic occupancy heuristic core.OptimalDepth(n,
// 32) across the admissible range; at higher K the model correctly prefers
// a shallower hierarchy (the interactive field's K^2 translations grow with
// the box count, the near field does not).
func (p *Planner) AnalyticDepth(n, k int, supernodes bool, maxDepth int) int {
	if maxDepth < 2 {
		maxDepth = p.maxDepth
	}
	best, bestCycles := 2, math.Inf(1)
	for d := 2; d <= maxDepth; d++ {
		if c := p.cost.ModelSolveCycles(n, d, k, supernodes); c < bestCycles {
			best, bestCycles = d, c
		}
	}
	return best
}

// modelSeconds is the analytic wall-clock prediction in CM-5E seconds (a
// relative, not host-accurate, figure until multiplied by the calibration
// scale). Total on any input; the result may be non-finite or non-positive
// at extreme shapes, which every consumer guards.
func (p *Planner) modelSeconds(n, depth, k int, supernodes bool) float64 {
	return p.cost.Seconds(p.cost.ModelSolveCycles(n, depth, k, supernodes))
}

// modelNS is modelSeconds in nanoseconds, for comparing search candidates.
func (p *Planner) modelNS(n, depth, k int, supernodes bool) int64 {
	sec := p.modelSeconds(n, depth, k, supernodes)
	if !(sec > 0) || math.IsInf(sec, 0) || sec > math.MaxInt64/1e9 {
		return 0
	}
	return int64(sec * 1e9)
}

// Resolve answers "what Plan should this shape use" and reports where the
// answer came from. It never runs a solve: a tuned entry answers from
// memory, everything else from the analytic model. The planner's counters
// record the outcome.
func (p *Planner) Resolve(shape ShapeKey, req Request) (Plan, Provenance) {
	if req.Depth > 0 {
		p.mu.Lock()
		p.counters.PlansPinned++
		p.mu.Unlock()
		return planFor(shape, req, req.Depth), ProvenancePinned
	}
	if depth, ok := p.tunedDepth(shape, req); ok {
		return planFor(shape, req, depth), ProvenanceTuned
	}
	depth := p.AnalyticDepth(shape.N, AccuracyK(shape.Accuracy), req.Supernodes, p.depthCap(req))
	p.mu.Lock()
	p.counters.PlansAnalytic++
	p.mu.Unlock()
	return planFor(shape, req, depth), ProvenanceAnalytic
}

// tunedDepth answers an automatic request from the tuned table when the
// shape has an entry within the request's depth cap, counting the hit (a
// plan resolved from measurement) or the miss.
func (p *Planner) tunedDepth(shape ShapeKey, req Request) (int, bool) {
	cap := p.depthCap(req)
	p.mu.Lock()
	defer p.mu.Unlock()
	if t := p.tuned[tuneKeyOf(shape, req)]; t != nil && t.Depth <= cap {
		p.counters.TuneHits++
		p.counters.PlansTuned++
		return t.Depth, true
	}
	p.counters.TuneMisses++
	return 0, false
}

// DepthFor is the counter-free resolution the brownout controller uses to
// re-pin an over-deep request: the tuned depth when one exists, the
// analytic depth otherwise. It must not bump counters — a brownout rewrite
// is not a plan resolution, and the level-2 path runs on every request
// under pressure.
func (p *Planner) DepthFor(shape ShapeKey, supernodes, sim bool) int {
	p.mu.Lock()
	t := p.tuned[tuneKeyOf(shape, Request{Supernodes: supernodes, Sim: sim})]
	p.mu.Unlock()
	if t != nil && t.Depth <= p.maxDepth {
		return t.Depth
	}
	return p.AnalyticDepth(shape.N, AccuracyK(shape.Accuracy), supernodes, p.maxDepth)
}

// Estimate predicts the cost of units units (1 for a solve, the step count
// for a simulation) of key's work. A shape the planner has observed is
// predicted by its measured EWMA — exact, host-specific, and converging
// within a few observations; an unseen shape by the cycle model times the
// host calibration (the model predicts relative cost across shapes well: it
// reproduces the paper's phase economics). confident reports whether enough
// measurements back the prediction to act on it — tuneMinObs of the shape
// itself, or scaleMinObs behind the calibration — so a cold planner never
// has a request shed on the uncalibrated seed. The returned duration is
// always in [0, maxEstimate].
func (p *Planner) Estimate(key Key, units int) (d time.Duration, confident bool) {
	if units < 1 {
		units = 1
	}
	cs := key.CostShape()
	p.mu.Lock()
	e, scale, scaleObs := p.measured[cs], p.scale, p.scaleObs
	var perUnit float64
	if e != nil {
		perUnit, confident = e.ewma, e.obs >= tuneMinObs
	}
	p.mu.Unlock()
	if e == nil {
		perUnit = scale * p.modelSeconds(cs.N, cs.Depth, cs.K, cs.Supernodes)
		confident = scaleObs >= scaleMinObs
	}
	sec := perUnit * float64(units)
	switch {
	case !(sec > 0): // negative or NaN
		return 0, confident
	case sec >= maxEstimate.Seconds(): // +Inf and overflow included
		return maxEstimate, confident
	}
	return time.Duration(sec * float64(time.Second)), confident
}

// Calibration reports the ledger's footprint: distinct shapes with a
// measured EWMA, the modeled-to-measured host scale, and how many
// observations back it.
func (p *Planner) Calibration() (shapes int, scale float64, obs int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.measured), p.scale, p.scaleObs
}

// Observe feeds one measured cost per unit of key's work — a solve's
// phase-table total (or its wall time when no table was recorded), a
// simulation's wall time per step — into the ledger: the configuration's
// EWMA and the host calibration are updated, and once a configuration has
// tuneMinObs observations it can claim (or defend) the shape's tuned entry.
// Non-positive and over-long measurements and impossible shapes are dropped
// — a canceled or faulted solve measures the abort, not the work.
func (p *Planner) Observe(key Key, perUnit time.Duration) {
	sec := perUnit.Seconds()
	if !(sec > 0) || sec > maxEstimate.Seconds() {
		return
	}
	cs := key.CostShape()
	if cs.Depth < 2 || cs.N < 1 || cs.K < 1 {
		return
	}
	tk := tuneKey{N: cs.N, Dist: cs.Dist, K: cs.K, Dims: key.Shape.Dims, Supernodes: cs.Supernodes, Sim: cs.Sim}
	model := p.modelSeconds(cs.N, cs.Depth, cs.K, cs.Supernodes)
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.measured[cs]
	if e == nil {
		e = &obsEwma{ewma: sec}
		p.measured[cs] = e
	} else {
		e.ewma += tuneAlpha * (sec - e.ewma)
	}
	e.obs++
	// The calibration takes this observation's measured/modeled ratio,
	// clamped so one pathological request (a fault retry storm, a model hole
	// at an extreme shape) cannot poison the scale for every other shape.
	if model > 0 && !math.IsInf(model, 0) {
		ratio := math.Min(math.Max(sec/model, p.scale/100), p.scale*100)
		p.scale += scaleAlpha * (ratio - p.scale)
		p.scaleObs++
	}
	if e.obs < tuneMinObs {
		return
	}
	t := p.tuned[tk]
	switch {
	case t == nil:
		p.tuned[tk] = &TunedPlan{Depth: cs.Depth, Seconds: e.ewma, Obs: e.obs}
	case t.Depth == cs.Depth:
		t.Seconds, t.Obs = e.ewma, e.obs
	case e.ewma < t.Seconds*tuneSwitchMargin:
		// A different depth is measurably faster: re-tune the shape.
		p.tuned[tk] = &TunedPlan{Depth: cs.Depth, Seconds: e.ewma, Obs: e.obs}
	}
}

// Tune resolves a shape by explicit measured search: every candidate depth
// within tuneSearchRadius of the analytic argmin (clamped to 2..cap) is
// benchmarked with the caller-supplied bench function and the fastest wins
// the shape's tuned entry. A shape that already has a tuned
// entry (e.g. loaded from a store) is answered from it without running
// bench at all — that is the warm start the persistent store exists for. A
// pinned request short-circuits to the pinned plan. The returned trials are
// the search's measurements (nil when no search ran).
func (p *Planner) Tune(shape ShapeKey, req Request, bench func(Plan) (time.Duration, error)) (Plan, []Trial, Provenance, error) {
	if req.Depth > 0 {
		pl, prov := p.Resolve(shape, req)
		return pl, nil, prov, nil
	}
	if depth, ok := p.tunedDepth(shape, req); ok {
		return planFor(shape, req, depth), nil, ProvenanceTuned, nil
	}

	cap := p.depthCap(req)
	k := AccuracyK(shape.Accuracy)
	analytic := p.AnalyticDepth(shape.N, k, req.Supernodes, cap)
	lo, hi := analytic-tuneSearchRadius, analytic+tuneSearchRadius
	if lo < 2 {
		lo = 2
	}
	if hi > cap {
		hi = cap
	}
	start := time.Now()
	var trials []Trial
	best, bestT := 0, time.Duration(math.MaxInt64)
	for d := lo; d <= hi; d++ {
		t, err := bench(planFor(shape, req, d))
		if err != nil {
			return Plan{}, trials, "", fmt.Errorf("plan: tune depth %d: %w", d, err)
		}
		trials = append(trials, Trial{Depth: d, Measured: t, ModelNS: p.modelNS(shape.N, d, k, req.Supernodes)})
		if t < bestT {
			best, bestT = d, t
		}
	}
	elapsed := time.Since(start)
	p.mu.Lock()
	p.counters.Searches++
	p.counters.SearchNS += int64(elapsed)
	p.tuned[tuneKeyOf(shape, req)] = &TunedPlan{Depth: best, Seconds: bestT.Seconds(), Obs: 1}
	p.counters.PlansTuned++
	p.mu.Unlock()
	return planFor(shape, req, best), trials, ProvenanceTuned, nil
}

// Tuned looks up the shape's tuned entry (a copy), reporting whether one
// exists.
func (p *Planner) Tuned(shape ShapeKey, req Request) (TunedPlan, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tuned[tuneKeyOf(shape, req)]
	if t == nil {
		return TunedPlan{}, false
	}
	return *t, true
}

// Counters snapshots this planner's counters.
func (p *Planner) Counters() metrics.PlannerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}
