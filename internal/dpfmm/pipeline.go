package dpfmm

import (
	"context"

	"nbody/internal/dp"
	"nbody/internal/geom"
	"nbody/internal/metrics"
	"nbody/internal/pipeline"
)

// Fault-injection site names (see internal/faults): one per named phase of
// the data-parallel pipeline, fired by the phase runner (internal/pipeline)
// when the phase completes without error, so an injected panic is attributed
// to that phase by the public API's recovery boundary.
const (
	FaultSiteSort      = "dpfmm/sort"
	FaultSiteLeafOuter = "dpfmm/leaf-outer"
	FaultSiteT1        = "dpfmm/T1"
	FaultSiteT3        = "dpfmm/T3"
	FaultSiteGhost     = "dpfmm/ghost"
	FaultSiteT2        = "dpfmm/T2"
	FaultSiteEval      = "dpfmm/eval"
	FaultSiteNear      = "dpfmm/near"
	// FaultSiteScatter covers the final un-reshape (per-box potentials back
	// to particle order); FaultSiteEmbed and FaultSiteExtract cover the
	// multigrid-storage data motion around the traversal phases.
	FaultSiteScatter = "dpfmm/scatter"
	FaultSiteEmbed   = "dpfmm/embed"
	FaultSiteExtract = "dpfmm/extract"
)

// FaultSites lists the sites in pipeline order for matrix tests. Every
// ghost strategy opens a ghost span before its first data motion, so the
// ghost site fires under all four strategies.
var FaultSites = []string{
	FaultSiteSort, FaultSiteLeafOuter, FaultSiteT1, FaultSiteT3,
	FaultSiteGhost, FaultSiteT2, FaultSiteEval, FaultSiteNear,
}

// FaultSitesAll additionally lists the sites that do not fire on every
// configuration (scatter runs on every solve but is exercised separately;
// embed/extract fire only with MultigridStorage), for binary-wide site
// inventories.
var FaultSitesAll = append(append([]string{}, FaultSites...),
	FaultSiteScatter, FaultSiteEmbed, FaultSiteExtract)

// sortPhase partitions the particles onto the machine (coordinate sort +
// communication-free reshape), publishing the grid through *pg for the later
// phases. The fault site fires only when partitioning succeeds.
func (s *Solver) sortPhase(pg **particleGrid, pos []geom.Vec3, q []float64, force bool) pipeline.Phase {
	return pipeline.Phase{Name: metrics.PhaseSort, Site: FaultSiteSort,
		Run: func(context.Context) error {
			g, err := s.partitionParticles(pos, q, force)
			if err != nil {
				return err
			}
			*pg = g
			return nil
		}}
}

// t2Sub is the sub-step declaration of the composite T2 phase: every ghost
// strategy opens ghost and T2 spans itself (via pipeline.Step) inside
// t2Level, in strategy-dependent multiplicity.
var t2Sub = []pipeline.SubStep{
	{Name: metrics.PhaseGhost, Site: FaultSiteGhost},
	{Name: metrics.PhaseT2, Site: FaultSiteT2},
}

// levelPhases declares steps 1-3 (leaf outer, upward, downward) with one
// grid per level — the simple storage scheme. Grids are allocated when the
// leaf-outer phase runs (after a successful sort, as before the phase-runner
// refactor); the leaf-level local-field grid is published through *out.
func (s *Solver) levelPhases(pg **particleGrid, out **dp.Grid3, k, depth int) []pipeline.Phase {
	far := make([]*dp.Grid3, depth+1)
	loc := make([]*dp.Grid3, depth+1)
	ps := []pipeline.Phase{
		{Name: metrics.PhaseLeafOuter, Site: FaultSiteLeafOuter,
			Run: func(context.Context) error {
				for l := 2; l <= depth; l++ {
					far[l] = s.M.NewGrid3(1<<l, k)
					loc[l] = s.M.NewGrid3(1<<l, k)
				}
				*out = loc[depth]
				s.leafOuter(*pg, far[depth])
				return nil
			}},
	}
	for l := depth - 1; l >= 2; l-- {
		ps = append(ps, pipeline.Phase{Name: metrics.PhaseT1, Site: FaultSiteT1,
			Run: func(context.Context) error {
				s.upwardLevel(far[l+1], far[l])
				return nil
			}})
	}
	for l := 2; l <= depth; l++ {
		if l > 2 {
			ps = append(ps, pipeline.Phase{Name: metrics.PhaseT3, Site: FaultSiteT3,
				Run: func(context.Context) error {
					s.t3Level(loc[l-1], loc[l])
					return nil
				}})
		}
		ps = append(ps, pipeline.Phase{Name: metrics.PhaseT2, Composite: true, Sub: t2Sub,
			Run: func(context.Context) error {
				s.t2Level(far[l], loc[l])
				return nil
			}})
	}
	return ps
}

// multigridPhases declares steps 1-3 over the paper's two-layer embedded
// storage (Section 3.1): leaf levels live in the Leaf layer, all coarser
// levels embedded in the Nonleaf layer; traversal phases work on level-sized
// temporaries moved by Multigrid-embed/extract (the Multigrid-reduce /
// Multigrid-distribute operators of Section 3.3.2). Temporaries are created
// when their phase runs, preserving the storage scheme's peak-memory
// behavior.
func (s *Solver) multigridPhases(pg **particleGrid, out **dp.Grid3, k, depth int) []pipeline.Phase {
	var farMG, locMG *Multigrid
	var cur *dp.Grid3
	ps := []pipeline.Phase{
		{Name: metrics.PhaseLeafOuter, Site: FaultSiteLeafOuter,
			Run: func(context.Context) error {
				farMG = NewMultigrid(s.M, depth, k)
				locMG = NewMultigrid(s.M, depth, k)
				s.leafOuter(*pg, farMG.Leaf)
				cur = farMG.Leaf
				return nil
			}},
	}
	for l := depth - 1; l >= 2; l-- {
		var parent *dp.Grid3
		ps = append(ps,
			pipeline.Phase{Name: metrics.PhaseT1, Site: FaultSiteT1,
				Run: func(context.Context) error {
					parent = s.M.NewGrid3(1<<l, k)
					s.upwardLevel(cur, parent)
					return nil
				}},
			pipeline.Phase{Name: metrics.PhaseEmbed, Site: FaultSiteEmbed,
				Run: func(context.Context) error {
					farMG.Embed(dp.RemapAliased, parent, l, true)
					cur = parent
					return nil
				}},
		)
	}
	for l := 2; l <= depth; l++ {
		var farL, locL, locParent *dp.Grid3
		if l != depth {
			ps = append(ps, pipeline.Phase{Name: metrics.PhaseExtract, Site: FaultSiteExtract,
				Run: func(context.Context) error {
					farL = s.M.NewGrid3(1<<l, k)
					farMG.Extract(dp.RemapAliased, farL, l, true)
					return nil
				}})
		}
		if l > 2 {
			ps = append(ps,
				pipeline.Phase{Name: metrics.PhaseExtract, Site: FaultSiteExtract,
					Run: func(context.Context) error {
						locParent = s.M.NewGrid3(1<<(l-1), k)
						locMG.Extract(dp.RemapAliased, locParent, l-1, true)
						return nil
					}},
				pipeline.Phase{Name: metrics.PhaseT3, Site: FaultSiteT3,
					Run: func(context.Context) error {
						locL = s.M.NewGrid3(1<<l, k)
						s.t3Level(locParent, locL)
						return nil
					}},
			)
		}
		ps = append(ps, pipeline.Phase{Name: metrics.PhaseT2, Composite: true, Sub: t2Sub,
			Run: func(context.Context) error {
				if locL == nil {
					locL = s.M.NewGrid3(1<<l, k)
				}
				fl := farL
				if l == depth {
					fl = farMG.Leaf
				}
				s.t2Level(fl, locL)
				if l == depth {
					*out = locL
				}
				return nil
			}})
		if l != depth {
			ps = append(ps, pipeline.Phase{Name: metrics.PhaseEmbed, Site: FaultSiteEmbed,
				Run: func(context.Context) error {
					locMG.Embed(dp.RemapAliased, locL, l, true)
					return nil
				}})
		}
	}
	return ps
}

// hierarchyPhases selects the storage scheme's phase declaration.
func (s *Solver) hierarchyPhases(pg **particleGrid, out **dp.Grid3, k, depth int) []pipeline.Phase {
	if s.MultigridStorage {
		return s.multigridPhases(pg, out, k, depth)
	}
	return s.levelPhases(pg, out, k, depth)
}
