package core

import (
	"context"

	"nbody/internal/blas"
	"nbody/internal/direct"
	"nbody/internal/geom"
	"nbody/internal/pipeline"
	"nbody/internal/sched"
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

// region is one entry of a solve's list of parallel regions (buildPhases):
// a T1, T3 or T2 sweep of one level, leaf-outer, eval-local or one
// near-field round. It holds what runRegions needs to run it and charge it,
// built once, body included, so a steady-state solve allocates no closure.
type region struct {
	phase Phase
	jobs  int
	// inline runs the jobs on the caller, one at a time: a T1/T3 sweep too
	// small to repay a region (inlineBoxes). A near round decides it as it
	// runs (nearInlinePairs), when its job lists are split.
	inline bool
	body   func(job int)
	// round makes the entry a near-field round: nearSplit builds its two
	// job lists for this solve's occupancies, each runs as a region of its
	// own (s.nearBodies, in place of body) whose jobs are claimed one at a
	// time, and it is charged the pairs its kernels count.
	round *nearRound
	// The planned work charged to phase once the region finishes: count
	// units (translations; particles if perParticle) of flops[0] flops each
	// in a potential solve, flops[1] in a force solve. A T2 entry's units
	// are its conversions (T2Count).
	count       int64
	perParticle bool
	flops       [2]int64
}

// buildPhases declares the solve pipeline and its list of regions once, at
// construction, in pipeline order. A phase body runs its entries of the
// list; the bodies read the in-flight solve's inputs and outputs from s.in,
// so steady-state solves run the prebuilt slices through pipeline.Run
// without allocating. nHier marks the end of the hierarchy phases (sort
// through the last T2), the prefix PotentialsAt reuses.
func (s *Solver) buildPhases() {
	depth := s.cfg.Depth
	nb := s.hier.NumBoxes(depth)
	k := int64(s.ts.K)
	dgemm := blas.DgemmFlops(s.ts.K, s.ts.K, 1)
	// entries appends a phase's regions to the list and returns its body;
	// it is called in source order (Go evaluates the calls in a composite
	// literal left to right), so the list is in pipeline order.
	entries := func(rs ...region) func(context.Context) error {
		lo := len(s.regions)
		s.regions = append(s.regions, rs...)
		hi := len(s.regions)
		return func(context.Context) error { return s.runRegions(lo, hi) }
	}
	// A parent-child sweep has one job plane per parent z, so planes³ is
	// its parent level's box count.
	sweep := func(sw *sweep) region {
		return region{phase: sw.phase, jobs: sw.jobs(),
			inline: sw.phase != PhaseT2 && sw.planes*sw.planes*sw.planes <= inlineBoxes,
			body:   func(job int) { s.sweepJob(sw, job) },
			count:  sw.count, flops: [2]int64{dgemm, dgemm}}
	}
	var up []region
	for l := depth - 1; l >= 2; l-- {
		up = append(up, sweep(s.t1[l]))
	}
	ps := []pipeline.Phase{
		{Name: PhaseSort, Site: FaultSiteSort,
			Run: func(context.Context) error { return s.prepare(s.in.pos, s.in.q) }},
		{Name: PhaseLeafOuter, Site: FaultSiteLeafOuter,
			Slice: func() []float64 { return s.far[depth] },
			Run: entries(region{phase: PhaseLeafOuter, jobs: nb, body: s.leafOuter,
				perParticle: true, flops: [2]int64{k * direct.FlopsPerPair, k * direct.FlopsPerPair}})},
		{Name: PhaseUpward, Site: FaultSiteT1,
			Slice: func() []float64 { return s.far[2] },
			Run:   entries(up...)},
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
				Run:   entries(sweep(s.t3[l]))})
		}
		ps = append(ps, pipeline.Phase{Name: PhaseT2, Site: FaultSiteT2,
			Slice: func() []float64 { return s.loc[l] },
			Run:   entries(sweep(s.t2[l]))})
	}
	s.nHier = len(ps)
	rounds := make([]region, len(s.nearRounds))
	for i := range rounds {
		rounds[i] = region{phase: PhaseNear, round: &s.nearRounds[i]}
	}
	m := s.cfg.M
	ps = append(ps,
		pipeline.Phase{Name: PhaseEvalLocal, Site: FaultSiteEval,
			Slice: func() []float64 { return s.phiS },
			Run: entries(region{phase: PhaseEvalLocal, jobs: nb, body: s.evalLocal,
				perParticle: true, flops: [2]int64{EvalLocalFlops(1, int(k), m, false), EvalLocalFlops(1, int(k), m, true)}})},
		pipeline.Phase{Name: PhaseNear, Site: FaultSiteNear,
			Slice: func() []float64 { return s.phiS },
			Run:   entries(rounds...)},
		// Scatter the box-ordered results back to particle order (the
		// inverse reshape; charged to the sort phase like the forward one).
		pipeline.Phase{Name: PhaseSort, Site: FaultSiteScatter,
			Run: func(context.Context) error { s.scatter(); return nil }},
	)
	s.phases = ps
}

// runRegions runs entries lo..hi-1 of the region list in order. It is the
// only place a solve enters the pool, and the only place a region is
// charged: a finished sweep or leaf region its planned work, a finished
// near round the pairs its kernels counted. A canceled region did only part
// of its jobs: it returns the context's error and charges nothing, and the
// next solve rebuilds everything it wrote.
func (s *Solver) runRegions(lo, hi int) error {
	force := 0
	if s.in.acc != nil {
		force = 1
	}
	for i := lo; i < hi; i++ {
		r := &s.regions[i]
		if r.round != nil {
			s.nearPairs.Store(0)
			r.inline = s.nearSplit(r.round) <= nearInlinePairs
			for l, body := range s.nearBodies {
				if err := sched.RunEachCtx(s.ctx, len(s.nearLists[l]), r.inline, body); err != nil {
					return err
				}
			}
			pairs := s.nearPairs.Load()
			s.rec.AddNearPairs(pairs)
			s.rec.AddFlops(PhaseNear, pairs*NearFlopsPerPair)
			continue
		}
		var err error
		if r.inline {
			err = sched.RunEachCtx(s.ctx, r.jobs, true, r.body)
		} else {
			err = sched.RunCtx(s.ctx, r.jobs, r.body)
		}
		if err != nil {
			return err
		}
		units := r.count
		if r.perParticle {
			units = int64(len(s.xs))
		}
		if r.phase == PhaseT2 {
			s.rec.AddT2(units)
		}
		s.rec.AddFlops(r.phase, units*r.flops[force])
	}
	return nil
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
