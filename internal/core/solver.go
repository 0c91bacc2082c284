package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"nbody/internal/geom"
	"nbody/internal/kernels"
	"nbody/internal/metrics"
	"nbody/internal/pipeline"
	"nbody/internal/tree"
)

// Solver runs Anderson's method on a fixed hierarchy with precomputed
// translation matrices. It is the shared-memory reference implementation of
// the paper's algorithm (Section 2.2); the data-parallel machine expression
// lives in internal/dpfmm and is validated against this one.
//
// Steady-state reuse contract: everything a solve needs besides the output
// slices — the per-level far/local expansion grids, the partition scratch,
// the box-sorted particle mirrors, each level's translation sweeps (T1, T3,
// T2, see plans.go) and the list of the solve's parallel regions with their
// bodies (buildPhases) — is owned by the Solver and built once in
// NewSolver. A Solver therefore performs repeated solves (time-stepping,
// parameter sweeps) without rebuilding anything: call Solve with
// caller-owned output buffers. With one executor such a solve allocates
// nothing; on a worker pool it allocates nothing either once the
// scheduler's pool of region descriptors is warm.
// Consecutive solves on identical inputs are bitwise reproducible, and
// every solve — potentials and forces alike — is bitwise independent of the
// number of workers, one included: a translation sweep writes a box from
// exactly one job, in an order fixed by the box, and the near field's rounds
// (near.go) give every particle its contributions in an order fixed by
// the round list. Replicas with different core counts therefore answer one
// request with the same bits, which idempotent replay, plan reuse and
// resumed streams rely on. A Solver is not safe for concurrent solves.
type Solver struct {
	cfg  Config
	hier tree.Hierarchy
	ts   *TranslationSet

	nearOff []geom.Coord3 // PotentialsAt's per-target source boxes

	// The near-field sweep (near.go): its rounds, the two job lists of the
	// round in flight (reused buffers, see nearSplit), a body for each built
	// once here, and the pair count the round's jobs add up.
	nearRounds []nearRound
	nearLists  [2][]nearJob
	nearBodies [2]func(job int)
	nearPairs  atomic.Int64

	// rec is the always-on per-phase recorder; snap is the materialized
	// view Stats() refreshes (kept on the Solver so Stats() allocates
	// nothing in steady state).
	rec  metrics.Rec
	snap Stats

	// Translation sweeps, built once in NewSolver (plans.go), each indexed by
	// the level it writes: t1[l] is far[l+1] -> far[l], t3[l] is loc[l-1] ->
	// loc[l], t2[l] is the interactive field of level l (far[l], and with
	// supernodes far[l-1], -> loc[l]).
	t1, t3, t2 []*sweep

	// Per-level expansion grids, reused (and re-zeroed) every solve.
	far, loc [][]float64

	// Partition scratch: CSR particle-to-box map plus the counting-sort
	// working arrays, reused across solves.
	part  Partition
	boxOf []int32
	fill  []int

	// Box-sorted particle mirrors, one plane per attribute: xs/ys/zs/qS are
	// the positions/charges in box order, phiS and gx/gy/gz the per-particle
	// results accumulated in that order and scattered back on completion.
	// Sorting once per solve makes every leaf and near-field sweep a
	// contiguous walk — box indices run x fastest, so a whole x-row of
	// boxes, and any run of neighbours within it, is one slice of each plane.
	xs, ys, zs, qS   []float64
	phiS, gx, gy, gz []float64
	// near is the same eight planes as the near-field kernels take them.
	near kernels.NearPlanes

	// ctx is the cancellation signal of the solve in flight (nil outside a
	// Solve, or when it was given none), read by runRegions; a Solver runs
	// one solve at a time, so a plain field is enough.
	ctx context.Context

	// phases is the declared pipeline and regions its list of parallel
	// regions (see buildPhases), built once here so steady-state solves run
	// through pipeline.Run without allocating; in binds the in-flight
	// solve's inputs and outputs for the phase and region bodies, and nHier
	// marks the end of the hierarchy phases for PotentialsAt.
	phases  []pipeline.Phase
	regions []region
	nHier   int
	in      struct {
		pos []geom.Vec3
		q   []float64
		phi []float64
		acc []geom.Vec3
	}
}

// NewSolver builds a solver for the domain root with the given
// configuration. The translation matrices come from the process-wide memo
// (sharedTranslationSet): the first solver that needs a set computes it and
// is charged PhaseSetup for it, later ones share it and are charged nothing.
func NewSolver(root geom.Box3, cfg Config) (*Solver, error) {
	ncfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	h, err := tree.NewHierarchy(root, ncfg.Depth)
	if err != nil {
		return nil, err
	}
	s := &Solver{cfg: ncfg, hier: h}
	s.ts = sharedTranslationSet(ncfg, &s.rec)
	s.nearOff = tree.NearOffsets(ncfg.Separation)
	s.nearRounds = buildNearRounds(h.GridSize(ncfg.Depth), ncfg.Separation)
	s.nearBodies = [2]func(int){
		func(i int) { s.nearRow(&s.nearLists[0][i]) },
		func(i int) { s.nearRow(&s.nearLists[1][i]) },
	}

	depth := ncfg.Depth
	k := s.ts.K
	s.far = make([][]float64, depth+1)
	s.loc = make([][]float64, depth+1)
	for l := 2; l <= depth; l++ {
		s.far[l] = make([]float64, s.hier.NumBoxes(l)*k)
		s.loc[l] = make([]float64, s.hier.NumBoxes(l)*k)
	}
	var interactive [8][]geom.Coord3
	for oct := range interactive {
		interactive[oct] = tree.InteractiveOffsets(ncfg.Separation, oct)
	}
	s.t1 = make([]*sweep, depth+1)
	s.t3 = make([]*sweep, depth+1)
	s.t2 = make([]*sweep, depth+1)
	for l := 2; l <= depth; l++ {
		if l < depth {
			s.t1[l] = s.buildT1(l)
		}
		if l > 2 {
			s.t3[l] = s.buildT3(l)
		}
		// Level 2 has no parent far field to convert from (the upward pass
		// stops there), so it converts child by child either way.
		if ncfg.Supernodes && l > 2 {
			s.t2[l] = s.buildT2Supernodes(l)
		} else {
			s.t2[l] = s.buildT2(l, &interactive)
		}
	}
	s.buildPhases()
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Solver) Config() Config { return s.cfg }

// Hierarchy returns the solver's spatial hierarchy.
func (s *Solver) Hierarchy() tree.Hierarchy { return s.hier }

// Stats returns the accumulated instrumentation of all solves so far. The
// returned snapshot is owned by the Solver and refreshed on every call;
// copy it to retain a point-in-time view.
func (s *Solver) Stats() *Stats {
	s.rec.ReadInto(&s.snap)
	return &s.snap
}

// Rec exposes the live recorder (for callers that aggregate several
// solvers into one report).
func (s *Solver) Rec() *metrics.Rec { return &s.rec }

// Solve computes the potential phi_i = sum_{j != i} q_j / |x_i - x_j| at
// every particle into phi (len(pos) entries) and, when acc is non-nil, the
// field a_i = +grad phi into acc (len(pos) entries; the (y-x)/r^3 convention
// of package direct). With a reused Solver and reused output slices,
// repeated solves are allocation-free.
//
// A nil ctx means no cancellation. Otherwise ctx is checked between phases
// and inside every parallel sweep's chunk-claim loop, so a canceled context
// returns ctx.Err() within about one chunk's work. The output of a canceled
// solve is garbage; the Solver itself is left safe-to-retry (the next solve
// rebuilds all per-solve state).
func (s *Solver) Solve(ctx context.Context, pos []geom.Vec3, q []float64, phi []float64, acc []geom.Vec3) error {
	if len(pos) != len(q) {
		return fmt.Errorf("core: %d positions but %d charges", len(pos), len(q))
	}
	if len(phi) != len(pos) {
		return fmt.Errorf("core: %d potentials for %d positions", len(phi), len(pos))
	}
	if acc != nil && len(acc) != len(pos) {
		return fmt.Errorf("core: %d accelerations for %d positions", len(acc), len(pos))
	}
	s.rec.SetShape(len(pos), s.cfg.Depth, s.ts.K)
	s.ctx = ctx
	s.in.pos, s.in.q, s.in.phi, s.in.acc = pos, q, phi, acc
	defer s.clearSolveState()
	return pipeline.Run(ctx, &s.rec, "core", s.phases)
}

// clearSolveState drops the in-flight solve's bindings so the Solver does
// not retain caller slices (or a canceled context) between solves.
func (s *Solver) clearSolveState() {
	s.ctx = nil
	s.in.pos, s.in.q, s.in.phi, s.in.acc = nil, nil, nil, nil
}

// prepare runs the per-solve setup on reused buffers: the counting-sort
// partition, the box-sorted particle mirrors, and zeroing of the expansion
// grids. It rejects a particle outside the closed root box in the same pass
// that bins the particles, before anything but its own scratch is written.
func (s *Solver) prepare(pos []geom.Vec3, q []float64) error {
	n := s.hier.GridSize(s.cfg.Depth)
	nb := n * n * n
	np := len(pos)

	if cap(s.boxOf) < np {
		s.boxOf = make([]int32, np)
		s.part.Perm = make([]int, np)
		// One allocation for the eight mirror planes, at a stride of np
		// rounded up to 4 KiB plus 512 B: plane k starts k*512 B mod 4 KiB.
		// Separate page-aligned planes of a 4 KiB multiple all end on a page
		// boundary, where the grid's last box sits, and the avx512 kernels'
		// masked last group of sources then stores across the page — about
		// ten times slower per call (DESIGN.md §5). Staggered, only xs, which
		// no kernel stores to, can end there, and no load from one plane
		// 4K-aliases a pending store to another at the same index.
		stride := (np+511)&^511 + 64
		buf := make([]float64, 8*stride)
		for k, plane := range []*[]float64{&s.xs, &s.ys, &s.zs, &s.qS, &s.phiS, &s.gx, &s.gy, &s.gz} {
			*plane = buf[k*stride : k*stride+np : k*stride+np]
		}
	}
	s.boxOf = s.boxOf[:np]
	s.part.Perm = s.part.Perm[:np]
	s.xs, s.ys, s.zs, s.qS = s.xs[:np], s.ys[:np], s.zs[:np], s.qS[:np]
	s.phiS, s.gx, s.gy, s.gz = s.phiS[:np], s.gx[:np], s.gy[:np], s.gz[:np]
	s.near = kernels.NearPlanes{X: s.xs, Y: s.ys, Z: s.zs, Q: s.qS, Phi: s.phiS, GX: s.gx, GY: s.gy, GZ: s.gz}
	if s.part.Start == nil {
		s.part.Start = make([]int, nb+1)
		s.fill = make([]int, nb)
	}
	s.part.Grid = n
	if i := s.part.sort(s.hier.Root, pos, s.boxOf, s.fill); i >= 0 {
		return fmt.Errorf("core: particle %v outside domain %v", pos[i], s.hier.Root)
	}
	for i, j := range s.part.Perm {
		s.xs[i], s.ys[i], s.zs[i] = pos[j].X, pos[j].Y, pos[j].Z
		s.qS[i] = q[j]
	}

	for l := 2; l <= s.cfg.Depth; l++ {
		clear(s.far[l])
		clear(s.loc[l])
	}
	return nil
}

// inClosedBox reports whether p lies in the CLOSED root box. Points exactly
// on the upper faces are accepted (BoxOf3 clamps them into the boundary
// leaf).
func inClosedBox(b geom.Box3, p geom.Vec3) bool {
	lo, hi := closedBounds(b)
	return p.X >= lo.X && p.X <= hi.X && p.Y >= lo.Y && p.Y <= hi.Y && p.Z >= lo.Z && p.Z <= hi.Z
}

// closedBounds returns the lower and upper corners of b, for tests over many
// points that keep them out of the loop.
func closedBounds(b geom.Box3) (lo, hi geom.Vec3) {
	h := b.Side / 2
	return geom.Vec3{X: b.Center.X - h, Y: b.Center.Y - h, Z: b.Center.Z - h},
		geom.Vec3{X: b.Center.X + h, Y: b.Center.Y + h, Z: b.Center.Z + h}
}

// leafOuter is step 1 for leaf box b, the body of its region: sample the
// potential of the box's particles at its outer-sphere integration points.
// The box-sorted mirrors make the inner particle loop a contiguous sweep.
func (s *Solver) leafOuter(b int) {
	pipeline.Fire(FaultSiteLeafOuterBody)
	lo, hi := s.part.Start[b], s.part.Start[b+1]
	if lo == hi {
		return
	}
	depth, k := s.cfg.Depth, s.ts.K
	center := s.hier.Box(depth, geom.CoordFromIndex(b, s.part.Grid)).Center
	a := s.cfg.RadiusRatio * s.hier.BoxSide(depth)
	LeafOuter(s.cfg.Rule, center, a, s.xs[lo:hi], s.ys[lo:hi], s.zs[lo:hi], s.qS[lo:hi], s.far[depth][b*k:(b+1)*k])
}

// posAt is particle i of the box-sorted mirrors as a point.
func (s *Solver) posAt(i int) geom.Vec3 { return geom.Vec3{X: s.xs[i], Y: s.ys[i], Z: s.zs[i]} }

// evalLocal is step 4 for leaf box b, the body of its region: evaluate
// the box's inner approximation at its particles, writing the box-ordered
// result mirrors (the field too in a force solve).
func (s *Solver) evalLocal(b int) {
	lo, hi := s.part.Start[b], s.part.Start[b+1]
	if lo == hi {
		return
	}
	depth, k := s.cfg.Depth, s.ts.K
	center := s.hier.Box(depth, geom.CoordFromIndex(b, s.part.Grid)).Center
	a := s.cfg.RadiusRatio * s.hier.BoxSide(depth)
	var gx, gy, gz []float64
	if s.in.acc != nil {
		gx, gy, gz = s.gx[lo:hi], s.gy[lo:hi], s.gz[lo:hi]
	}
	EvalLocal(s.cfg.Rule, s.cfg.M, center, a, s.loc[depth][b*k:(b+1)*k], s.xs[lo:hi], s.ys[lo:hi], s.zs[lo:hi], s.phiS[lo:hi], gx, gy, gz)
}
