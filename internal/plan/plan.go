// Package plan owns the full lifecycle of a solve configuration: the
// canonical shape of a problem (ShapeKey), the resolved configuration a
// solver is built from (Plan), the identity of one warm execution engine
// (Key), the cost-model autotuner that predicts the best Plan per shape and
// what it will cost, refining both online from measured solves (Planner),
// and the persistent tuned-plan store that lets warm starts skip search
// entirely.
//
// Before this package the repo had four disconnected encodings of "what
// configuration should this solve use": the public Options, the analytic
// cycle model in internal/dp, the shape-keyed plan cache plus admission
// estimator in internal/serve, and the flag plumbing in internal/cli. All
// of them now consume these types; the paper's central claim — that the
// O(N) method's work is predictable enough to schedule from a cycle model —
// is what makes one planning layer possible.
package plan

import (
	"fmt"
	"math"

	"nbody/internal/geom"
	"nbody/internal/sphere"
)

// Distribution fingerprint buckets. The fingerprint classifies a particle
// set by how far its leaf-level occupancy statistics sit from the Poisson
// statistics of a uniform distribution — the quantity the cost model's
// occupancy terms are sensitive to.
const (
	// DistUniform marks occupancy consistent with a uniform distribution
	// (the cost model's own assumption).
	DistUniform = "uniform"
	// DistClustered marks moderate occupancy skew (e.g. a Plummer sphere):
	// the near field concentrates, the analytic model under-predicts it.
	DistClustered = "clustered"
	// DistPeaked marks extreme skew: most particles in a few cells.
	DistPeaked = "peaked"
)

// ShapeKey is the canonical identity of a problem shape: everything about
// the *input* that influences which configuration is best. Two requests
// with equal ShapeKeys want the same Plan.
type ShapeKey struct {
	// N is the particle count.
	N int
	// Dist is the distribution fingerprint (DistUniform, DistClustered,
	// DistPeaked, or "" when the positions were not available to
	// fingerprint).
	Dist string
	// Accuracy is the preset name: fast (default) | balanced | accurate.
	Accuracy string
	// Dims is the spatial dimension (0 means 3).
	Dims int
}

func (s ShapeKey) String() string {
	d := s.Dist
	if d == "" {
		d = "?"
	}
	acc := s.Accuracy
	if acc == "" {
		acc = "fast"
	}
	return fmt.Sprintf("n=%d dist=%s acc=%s", s.N, d, acc)
}

// Plan is one resolved solve configuration: everything a consumer needs to
// build a solver for a shape. It is a comparable value — the serve plan
// cache uses it (inside Key) as a map key.
type Plan struct {
	// Depth is the hierarchy depth (>= 2).
	Depth int
	// K is the per-box integration-point count the accuracy preset resolves
	// to (AccuracyK: 12 for fast, 50 for balanced, 98 for accurate).
	K int
	// Supernodes enables the 875 -> 189 interactive-field reduction.
	Supernodes bool
	// Ladder is the comma-separated fallback chain below the Anderson rung
	// ("" = no fallbacks).
	Ladder string
}

// Key is the full identity of one warm execution engine: the shape solved,
// the domain flavor, and the exact Plan the engine was built from. Two
// requests with equal Keys are served bitwise identically by one engine.
type Key struct {
	Shape ShapeKey
	// Sim selects the enlarged integration domain.
	Sim  bool
	Plan Plan
}

// String renders the key the way the request logs print it.
func (k Key) String() string {
	tag := ""
	if k.Plan.Supernodes {
		tag = "+super"
	}
	if k.Sim {
		tag += "+sim"
	}
	dist := ""
	if k.Shape.Dist != "" {
		dist = " dist=" + k.Shape.Dist
	}
	return fmt.Sprintf("n=%d depth=%d acc=%s%s%s", k.Shape.N, k.Plan.Depth, k.Shape.Accuracy, tag, dist)
}

// CostShape is the cost-relevant projection of a Key: the fields that
// change how long a solve takes on a given host, with accuracy already
// resolved to the integration-point count K the cost model wants. It is the
// key of the Planner's measured-cost ledger, the one table admission
// estimates and tuned depths are both read from. Sim is included because
// simulation requests are observed per step and solve requests per request.
type CostShape struct {
	N          int
	Dist       string
	Depth      int
	K          int
	Supernodes bool
	Sim        bool
}

// CostShape projects the key onto its cost-relevant fields.
func (k Key) CostShape() CostShape {
	return CostShape{
		N:          k.Shape.N,
		Dist:       k.Shape.Dist,
		Depth:      k.Plan.Depth,
		K:          k.Plan.K,
		Supernodes: k.Plan.Supernodes,
		Sim:        k.Sim,
	}
}

// Provenance records where a resolved Plan came from, for observability:
// a caller-pinned configuration, the analytic cost model, or a measured
// (tuned) entry.
type Provenance string

// The provenance values.
const (
	ProvenancePinned   Provenance = "pinned"
	ProvenanceAnalytic Provenance = "analytic"
	ProvenanceTuned    Provenance = "tuned"
)

// AccuracyK maps the accuracy presets onto their integration-point counts
// (the paper's K): the 12-point icosahedral rule for fast, the degree-9 and
// degree-13 product rules above it. "" maps to fast. Kept consistent with
// the root package's presets by the serve package's cross-check test.
func AccuracyK(accuracy string) int {
	deg := 5
	switch accuracy {
	case "balanced":
		deg = 9
	case "accurate":
		deg = 13
	}
	if r := sphere.ForDegree(deg); r != nil {
		return r.K()
	}
	return 12
}

// Fingerprint classifies a particle distribution by occupancy skew: the
// positions are binned into a fixed probe grid over their bounding box and
// the coefficient of variation of the cell counts is compared against the
// Poisson CV (1/sqrt(mean)) a uniform distribution would produce. The
// result is deterministic in the positions — equal systems always map to
// the same bucket, which is what lets the fingerprint participate in cache
// and store keys. O(N), no allocation beyond the probe grid.
func Fingerprint(pos []geom.Vec3) string {
	n := len(pos)
	if n == 0 {
		return DistUniform
	}
	// Probe resolution: 4^3 cells for small systems, 8^3 above 4096
	// particles, so the expected occupancy stays high enough for the
	// Poisson comparison to be meaningful.
	side := 4
	if n >= 4096 {
		side = 8
	}
	lo, hi := pos[0], pos[0]
	for _, p := range pos[1:] {
		lo.X, lo.Y, lo.Z = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z)
		hi.X, hi.Y, hi.Z = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z)
	}
	ext := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z))
	if !(ext > 0) || math.IsInf(ext, 0) || math.IsNaN(ext) {
		// Coincident or degenerate positions: every particle in one cell.
		return DistPeaked
	}
	cells := make([]int32, side*side*side)
	inv := float64(side) / ext
	clamp := func(v float64) int {
		i := int(v)
		if i < 0 {
			return 0
		}
		if i >= side {
			return side - 1
		}
		return i
	}
	for _, p := range pos {
		x := clamp((p.X - lo.X) * inv)
		y := clamp((p.Y - lo.Y) * inv)
		z := clamp((p.Z - lo.Z) * inv)
		cells[(z*side+y)*side+x]++
	}
	mean := float64(n) / float64(len(cells))
	var ss float64
	for _, c := range cells {
		d := float64(c) - mean
		ss += d * d
	}
	cv := math.Sqrt(ss/float64(len(cells))) / mean
	poisson := 1 / math.Sqrt(mean)
	ratio := cv / poisson
	switch {
	case ratio < 2:
		return DistUniform
	case ratio < 8:
		return DistClustered
	default:
		return DistPeaked
	}
}
