package core

import (
	"context"
	"fmt"

	"nbody/internal/geom"
	"nbody/internal/pipeline"
	"nbody/internal/sched"
)

// PotentialsAt evaluates the potential field of the sources (pos, q) at an
// arbitrary set of target points (no self-exclusion): the far field comes
// from the local expansions of the targets' leaf boxes, the near field from
// direct summation over the targets' near-field source particles. Targets
// must lie inside the solver's domain. PotentialsAt shares the solver's
// reusable pipeline state (partition scratch, expansion grids, box-sorted
// mirrors), so like solve it must not run concurrently with other solves on
// the same Solver.
func (s *Solver) PotentialsAt(pos []geom.Vec3, q []float64, targets []geom.Vec3) ([]float64, error) {
	if len(pos) != len(q) {
		return nil, fmt.Errorf("core: %d positions but %d charges", len(pos), len(q))
	}
	for _, p := range pos {
		if !inClosedBox(s.hier.Root, p) {
			return nil, fmt.Errorf("core: source %v outside domain %v", p, s.hier.Root)
		}
	}
	for _, p := range targets {
		if !inClosedBox(s.hier.Root, p) {
			return nil, fmt.Errorf("core: target %v outside domain %v", p, s.hier.Root)
		}
	}
	// The hierarchy prefix of the declared pipeline (sort through the last
	// T2 conversion) is shared with solve; only the evaluation differs.
	s.in.pos, s.in.q = pos, q
	defer s.clearSolveState()
	if err := pipeline.Run(nil, &s.rec, "core", s.phases[:s.nHier]); err != nil {
		return nil, err
	}

	phi := make([]float64, len(targets))
	eval := []pipeline.Phase{{Name: PhaseEvalLocal, Site: FaultSiteEval,
		Slice: func() []float64 { return phi },
		Run: func(context.Context) error {
			s.evalAt(targets, phi)
			return nil
		}}}
	if err := pipeline.Run(nil, &s.rec, "core", eval); err != nil {
		return nil, err
	}
	return phi, nil
}

// evalAt evaluates the solved field at arbitrary target points: the local
// expansion of each target's leaf box (EvalLocal on the target alone) plus
// direct summation over its near-field source particles.
func (s *Solver) evalAt(targets []geom.Vec3, phi []float64) {
	depth := s.cfg.Depth
	k := s.ts.K
	loc := s.loc[depth]
	rule := s.cfg.Rule
	m := s.cfg.M
	a := s.cfg.RadiusRatio * s.hier.BoxSide(depth)
	n := s.part.Grid
	xs, ys, zs := make([]float64, len(targets)), make([]float64, len(targets)), make([]float64, len(targets))
	for i, x := range targets {
		xs[i], ys[i], zs[i] = x.X, x.Y, x.Z
	}
	sched.Run(len(targets), func(i int) {
		x := targets[i]
		c := s.hier.LeafOf(x)
		b := c.Index(n)
		center := s.hier.Box(depth, c).Center
		EvalLocal(rule, m, center, a, loc[b*k:(b+1)*k], xs[i:i+1], ys[i:i+1], zs[i:i+1], phi[i:i+1], nil, nil, nil)
		v := phi[i]
		// Near field: the target's own box plus its near offsets, as
		// contiguous ranges of the box-sorted source mirrors.
		sum := func(bi int) {
			lo, hi := s.part.Start[bi], s.part.Start[bi+1]
			for j := lo; j < hi; j++ {
				v += s.qS[j] / x.Dist(s.posAt(j))
			}
		}
		sum(b)
		for _, o := range s.nearOff {
			sc := c.Add(o)
			if !sc.In(n) {
				continue
			}
			sum(sc.Index(n))
		}
		phi[i] = v
	})
}
