// Package dpfmm expresses Anderson's method in the data-parallel primitive
// set of the simulated CM-5/5E machine (package dp), following Section 3 of
// Hu & Johnsson SC'96: block-distributed potential grids, coordinate-sorted
// particles reshaped into per-box (4-D) arrays without communication,
// parent-child interactions through locality-preserving gathers/scatters,
// interactive-field conversion through one of the four ghost-fetch
// strategies of Table 4, and near-field evaluation by shifting particle
// boxes along a linear order.
//
// The package is validated box-for-box against the shared-memory reference
// (internal/core); its purpose is to make the paper's communication and
// efficiency results measurable.
package dpfmm

import (
	"context"
	"fmt"

	"nbody/internal/blas"
	"nbody/internal/core"
	"nbody/internal/dp"
	"nbody/internal/geom"
	"nbody/internal/metrics"
	"nbody/internal/pipeline"
	"nbody/internal/tree"
)

// GhostStrategy selects the interactive-field communication scheme of
// Section 3.3.1 / Table 4.
type GhostStrategy int

// The four strategies, in the order of Table 4.
const (
	// DirectUnaliased: one multi-axis CSHIFT of the whole potential array
	// per interactive-field offset.
	DirectUnaliased GhostStrategy = iota
	// LinearizedUnaliased: a snake of unit-offset CSHIFTs through the
	// offset cube, shifting the whole array at every step.
	LinearizedUnaliased
	// DirectAliased: explicit per-VU ghost regions (4 deep on every face),
	// fetched region by region through array aliasing and sectioning.
	DirectAliased
	// LinearizedAliased: whole neighboring subgrids moved along a linear
	// order through the 26 adjacent VUs, then sectioned locally.
	LinearizedAliased
)

// String implements fmt.Stringer.
func (s GhostStrategy) String() string {
	switch s {
	case DirectUnaliased:
		return "direct-unaliased"
	case LinearizedUnaliased:
		return "linearized-unaliased"
	case DirectAliased:
		return "direct-aliased"
	case LinearizedAliased:
		return "linearized-aliased"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Solver runs Anderson's method on a dp.Machine.
type Solver struct {
	M        *dp.Machine
	Cfg      core.Config // normalized
	Hier     tree.Hierarchy
	TS       *core.TranslationSet
	Strategy GhostStrategy

	// MultigridStorage stores the far- and local-field hierarchies in the
	// paper's two-layer embedded arrays (Section 3.1, Figure 3), moving
	// level data through Multigrid-embed/extract around every traversal
	// phase — the memory-efficient data flow of the CMF implementation.
	// Off, each level gets its own grid (same arithmetic, simpler motion).
	MultigridStorage bool

	interactive [8][]geom.Coord3

	rec     metrics.Rec
	snap    metrics.Snapshot
	reshape ReshapeStats
}

// Stats returns the host-side per-phase instrumentation (wall time of the
// simulation, analytic flops, communication bytes) accumulated over all
// solves so far. It complements the machine's own cycle counters
// (dp.Machine.Counters), which model the target machine rather than the
// host. The snapshot is owned by the Solver and refreshed on each call.
func (s *Solver) Stats() *metrics.Snapshot {
	s.rec.ReadInto(&s.snap)
	return &s.snap
}

// Rec exposes the live recorder.
func (s *Solver) Rec() *metrics.Rec { return &s.rec }

// NewSolver builds the data-parallel solver. The root box and configuration
// mirror core.NewSolver.
func NewSolver(m *dp.Machine, root geom.Box3, cfg core.Config, strategy GhostStrategy) (*Solver, error) {
	ncfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if ncfg.Supernodes {
		return nil, fmt.Errorf("dpfmm: supernodes are exercised in the shared-memory solver only")
	}
	h, err := tree.NewHierarchy(root, ncfg.Depth)
	if err != nil {
		return nil, err
	}
	s := &Solver{M: m, Cfg: ncfg, Hier: h, TS: core.NewTranslationSet(ncfg), Strategy: strategy}
	for oct := 0; oct < 8; oct++ {
		s.interactive[oct] = tree.InteractiveOffsets(ncfg.Separation, oct)
	}
	return s, nil
}

// Solve computes the potential at every particle on the simulated machine
// into phi (len(pos) entries) and, when acc is non-nil, the field +grad phi
// into acc (len(pos) entries; the (y-x)/r^3 convention of package direct).
// It is the one pipeline of every solve: the coordinate sort and
// communication-free reshape, steps 1-3 (leaf outer, upward, downward) under
// the selected storage scheme, evaluation, the near field, and the
// un-reshape. A force solve differentiates the leaf inner approximations and
// carries field planes beside phi through the last three; its near field
// deposits pairwise fields along the same traveling walk as the potentials.
//
// A nil ctx means no cancellation. Otherwise ctx is checked between phases
// (the simulated machine's collective sweeps are not individually
// interruptible), so the latency bound is one phase rather than one chunk.
func (s *Solver) Solve(ctx context.Context, pos []geom.Vec3, q []float64, phi []float64, acc []geom.Vec3) error {
	switch {
	case len(pos) != len(q):
		return fmt.Errorf("dpfmm: %d positions but %d charges", len(pos), len(q))
	case len(phi) != len(pos):
		return fmt.Errorf("dpfmm: %d potentials for %d positions", len(phi), len(pos))
	case acc != nil && len(acc) != len(pos):
		return fmt.Errorf("dpfmm: %d accelerations for %d positions", len(acc), len(pos))
	}
	k := s.TS.K
	depth := s.Cfg.Depth
	s.rec.SetShape(len(pos), depth, k)

	// Per-solve state the phases publish and consume: the partitioned
	// particle grid and the leaf-level local field.
	var pg *particleGrid
	var locLeaf *dp.Grid3

	phases := []pipeline.Phase{s.sortPhase(&pg, pos, q, acc != nil)}
	phases = append(phases, s.hierarchyPhases(&pg, &locLeaf, k, depth)...)
	phases = append(phases,
		pipeline.Phase{Name: metrics.PhaseEvalLocal, Site: FaultSiteEval,
			Run: func(context.Context) error {
				s.evalLocal(pg, locLeaf)
				return nil
			}},
		pipeline.Phase{Name: metrics.PhaseNear, Site: FaultSiteNear,
			Run: func(context.Context) error {
				s.nearField(pg)
				return nil
			}},
		pipeline.Phase{Name: metrics.PhaseSort, Site: FaultSiteScatter,
			Run: func(context.Context) error {
				pg.scatter(phi, acc)
				return nil
			}},
	)
	return pipeline.Run(ctx, &s.rec, "dpfmm", phases)
}

// upwardLevel applies T1 from the child grid into the parent grid.
func (s *Solver) upwardLevel(child, parent *dp.Grid3) {
	k := s.TS.K
	eff := s.M.Cost.GemmEfficiency(k)
	dense := blas.Strides{Box: k}
	for oct := 0; oct < 8; oct++ {
		tmp := s.M.NewGrid3(parent.N, k)
		dp.OctantGather(dp.RemapAliased, tmp, child, oct)
		t := s.TS.T1[oct]
		tmp.ForEachVU(func(vu int, slab []float64) {
			boxes := len(slab) / k
			blas.DgemmRowsT(t, slab, parent.Slab(vu), boxes, 1, dense, dense)
			s.M.ChargeCompute(vu, blas.DgemmFlops(k, k, boxes), eff)
		})
	}
	s.rec.AddFlops(metrics.PhaseT1, 8*blas.DgemmFlops(k, k, parent.N*parent.N*parent.N))
}

// t3Level shifts parent local fields into children.
func (s *Solver) t3Level(parent, child *dp.Grid3) {
	k := s.TS.K
	eff := s.M.Cost.GemmEfficiency(k)
	dense := blas.Strides{Box: k}
	for oct := 0; oct < 8; oct++ {
		t := s.TS.T3[oct]
		tmp := s.M.NewGrid3(parent.N, k)
		parent.ForEachVU(func(vu int, slab []float64) {
			boxes := len(slab) / k
			blas.DgemmRowsT(t, slab, tmp.Slab(vu), boxes, 1, dense, dense)
			s.M.ChargeCompute(vu, blas.DgemmFlops(k, k, boxes), eff)
		})
		dp.OctantScatterAdd(dp.RemapAliased, child, tmp, oct)
	}
	s.rec.AddFlops(metrics.PhaseT3, 8*blas.DgemmFlops(k, k, parent.N*parent.N*parent.N))
}
