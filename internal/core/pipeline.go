package core

import (
	"context"

	"nbody/internal/geom"
	"nbody/internal/pipeline"
)

// Fault-injection site names for the shared-memory solver (see
// internal/faults). Sites fire inside the phase's open metrics span, so a
// panic injected at any of them is attributed to that phase by the public
// API's recovery boundary. The /body sites sit inside a parallel region and
// therefore fire on a pool worker, exercising cross-goroutine containment.
const (
	FaultSiteSort          = "core/sort"
	FaultSiteLeafOuter     = "core/leaf-outer"
	FaultSiteLeafOuterBody = "core/leaf-outer/body"
	FaultSiteT1            = "core/T1"
	FaultSiteT2            = "core/T2"
	FaultSiteT3            = "core/T3"
	FaultSiteEval          = "core/eval"
	FaultSiteNear          = "core/near"
	FaultSiteNearBody      = "core/near/body"
	FaultSiteScatter       = "core/scatter"
)

// FaultSites lists one site per named solve phase, in pipeline order; the
// fault-injection matrix tests iterate it so a renamed phase breaks loudly.
var FaultSites = []string{
	FaultSiteSort, FaultSiteLeafOuter, FaultSiteT1, FaultSiteT3,
	FaultSiteT2, FaultSiteEval, FaultSiteNear,
}

// FaultSitesAll is every site the solver declares, including the in-worker
// body sites and the result scatter; the pipeline meta-test checks global
// site-name uniqueness against it.
var FaultSitesAll = append(append([]string{}, FaultSites...),
	FaultSiteLeafOuterBody, FaultSiteNearBody, FaultSiteScatter)

// buildPhases declares the solve pipeline once, at construction. The phase
// bodies close over the Solver, reading the in-flight solve's inputs and
// outputs from s.in, so steady-state solves run the prebuilt slice through
// pipeline.Run without allocating. nHier marks the end of the hierarchy
// phases (sort through the last T2), the prefix PotentialsAt reuses.
func (s *Solver) buildPhases() {
	depth := s.cfg.Depth
	ps := []pipeline.Phase{
		{Name: PhaseSort, Site: FaultSiteSort,
			Run: func(context.Context) error { s.prepare(s.in.pos, s.in.q); return nil }},
		{Name: PhaseLeafOuter, Site: FaultSiteLeafOuter,
			Slice: func() []float64 { return s.far[depth] },
			Run:   func(context.Context) error { s.leafOuter(); return nil }},
		{Name: PhaseUpward, Site: FaultSiteT1,
			Slice: func() []float64 { return s.far[2] },
			Run:   func(context.Context) error { return s.upward() }},
	}
	// The downward pass: for each level l = 2..depth, shift the parent's
	// local field in with T3 and convert the interactive field with T2
	// (optionally through supernodes). The two translations are separate
	// phases (the paper's tables report the conversion, by far the dominant
	// term, on its own line).
	for l := 2; l <= depth; l++ {
		l := l
		if l > 2 {
			ps = append(ps, pipeline.Phase{Name: PhaseT3, Site: FaultSiteT3,
				Slice: func() []float64 { return s.loc[l] },
				Run:   func(context.Context) error { return s.apply(s.t3[l]) }})
		}
		ps = append(ps, pipeline.Phase{Name: PhaseT2, Site: FaultSiteT2,
			Slice: func() []float64 { return s.loc[l] },
			Run:   func(context.Context) error { return s.apply(s.t2[l]) }})
	}
	s.nHier = len(ps)
	ps = append(ps,
		pipeline.Phase{Name: PhaseEvalLocal, Site: FaultSiteEval,
			Slice: func() []float64 { return s.phiS },
			Run:   func(context.Context) error { s.evalLocal(s.in.acc != nil); return nil }},
		pipeline.Phase{Name: PhaseNear, Site: FaultSiteNear,
			Slice: func() []float64 { return s.phiS },
			Run:   func(context.Context) error { s.nearField(); return nil }},
		// Scatter the box-ordered results back to particle order (the
		// inverse reshape; charged to the sort phase like the forward one).
		pipeline.Phase{Name: PhaseSort, Site: FaultSiteScatter,
			Run: func(context.Context) error { s.scatter(); return nil }},
	)
	s.phases = ps
}

// scatter writes the box-ordered result mirrors back to the caller's
// particle-ordered output slices.
func (s *Solver) scatter() {
	for i, j := range s.part.Perm {
		s.in.phi[j] = s.phiS[i]
	}
	if s.in.acc != nil {
		for i, j := range s.part.Perm {
			s.in.acc[j] = geom.Vec3{X: s.gx[i], Y: s.gy[i], Z: s.gz[i]}
		}
	}
}
