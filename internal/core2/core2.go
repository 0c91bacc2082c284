// Package core2 implements the two-dimensional variant of Anderson's
// method. The paper notes that "the computations in two and three
// dimensions are very similar. Therefore, a code for three dimensions is
// easily obtained from a code for two dimensions, or vice versa"; this
// package demonstrates that property: the same five-step structure over a
// quadtree, with circle integration rules in place of sphere rules.
//
// The 2-D Laplace potential is phi(x) = -sum_j q_j ln|x - y_j|. Unlike 3-D,
// the far field of a cluster does not decay: it grows like -Q ln r with the
// total charge Q. An outer representation therefore carries the pair
// (Q, h), where h_i are the values of the decaying residual
// u = phi + Q ln r at the K points of a circle of radius a. u is harmonic
// outside the circle with zero boundary mean, and is reconstructed by the
// discretized exterior Poisson kernel
//
//	u(x) ~ sum_i w_i h_i [1 + 2 sum_{n=1..M} (a/r)^n cos(n dtheta)].
//
// Inner representations are plain circle values reconstructed by the
// interior kernel with (r/a)^n. All translations remain K x K matrices,
// augmented by a K-vector carrying the -Q ln r + Q ln a log terms.
package core2

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"nbody/internal/blas"
	"nbody/internal/direct"
	"nbody/internal/geom"
	"nbody/internal/kernels"
	"nbody/internal/metrics"
	"nbody/internal/pipeline"
	"nbody/internal/sched"
	"nbody/internal/sphere"
	"nbody/internal/tree"
)

// Fault-injection site names (see internal/faults): one per named phase of
// the 2-D pipeline, fired by the phase runner (internal/pipeline) when the
// phase completes without error.
const (
	FaultSiteSort      = "core2/sort"
	FaultSiteLeafOuter = "core2/leaf-outer"
	FaultSiteT1        = "core2/T1"
	FaultSiteT3        = "core2/T3"
	FaultSiteT2        = "core2/T2"
	FaultSiteEval      = "core2/eval"
	FaultSiteNear      = "core2/near"
)

// FaultSites lists the sites in pipeline order for matrix tests.
var FaultSites = []string{
	FaultSiteSort, FaultSiteLeafOuter, FaultSiteT1, FaultSiteT3,
	FaultSiteT2, FaultSiteEval, FaultSiteNear,
}

// Config selects the parameters of the 2-D method.
type Config struct {
	// K is the number of circle integration points. Required, >= 4.
	K int
	// M is the Fourier truncation; zero selects the alias-free maximum
	// (K-1)/2.
	M int
	// RadiusRatio is the circle radius in units of the box side; zero
	// selects 0.9. Must exceed sqrt(2)/2 (the circumscribed ratio).
	RadiusRatio float64
	// Depth is the quadtree depth. Required, >= 2.
	Depth int
	// Separation is the near-field separation; zero selects 2.
	Separation int
	// Supernodes enables the 2-D supernode decomposition (75 -> 27
	// effective interactive-field translations for d = 2).
	Supernodes bool
}

// DefaultRadiusRatio2 is the calibrated circle-radius default.
const DefaultRadiusRatio2 = 0.9

func (c Config) normalize() (Config, error) {
	if c.K < 4 {
		return c, fmt.Errorf("core2: K = %d < 4", c.K)
	}
	if c.M == 0 {
		c.M = (c.K - 1) / 2
	}
	if c.M < 1 || 2*c.M >= c.K {
		return c, fmt.Errorf("core2: M = %d out of range for K = %d", c.M, c.K)
	}
	if c.RadiusRatio == 0 {
		c.RadiusRatio = DefaultRadiusRatio2
	}
	if c.RadiusRatio <= math.Sqrt2/2 {
		return c, fmt.Errorf("core2: RadiusRatio %g <= sqrt(2)/2", c.RadiusRatio)
	}
	if c.Separation == 0 {
		c.Separation = 2
	}
	if c.Separation < 1 {
		return c, fmt.Errorf("core2: Separation %d < 1", c.Separation)
	}
	if float64(c.Separation+1)-c.RadiusRatio <= c.RadiusRatio {
		return c, fmt.Errorf("core2: RadiusRatio %g too large for separation %d", c.RadiusRatio, c.Separation)
	}
	if c.Depth < 2 {
		return c, fmt.Errorf("core2: Depth %d < 2", c.Depth)
	}
	if c.Supernodes && c.Separation != 2 {
		return c, fmt.Errorf("core2: supernodes implemented for separation 2 only")
	}
	return c, nil
}

// outerKernel2 is the exterior Poisson kernel 1 + 2 sum (a/r)^n cos(n dt).
func outerKernel2(m int, a, r, dt float64) float64 {
	rho := a / r
	s := 1.0
	pow := 1.0
	for n := 1; n <= m; n++ {
		pow *= rho
		s += 2 * pow * math.Cos(float64(n)*dt)
	}
	return s
}

// innerKernel2 is the interior Poisson kernel 1 + 2 sum (r/a)^n cos(n dt).
func innerKernel2(m int, a, r, dt float64) float64 {
	rho := r / a
	s := 1.0
	pow := 1.0
	for n := 1; n <= m; n++ {
		pow *= rho
		s += 2 * pow * math.Cos(float64(n)*dt)
	}
	return s
}

// translation is a K x K matrix plus the log-term vector: applying source
// (Q, h) appends A*h + Q*v to the destination values.
type translation struct {
	a blas.Matrix
	v []float64
}

func (t translation) apply(q float64, h, dst []float64) {
	blas.Dgemv(t.a, h, dst)
	blas.Daxpy(q, t.v, dst)
}

// Solver runs the 2-D method on a fixed quadtree.
type Solver struct {
	cfg  Config
	hier tree.Hierarchy2
	rule *sphere.CircleRule

	t1     [4]translation // child outer -> parent outer residual values
	t3     [4]blas.Matrix // parent inner -> child inner (no log terms)
	t2     []translation  // same-size outer -> inner, indexed by offset
	t2Side int
	// t2Super[qd] maps supernode parent offsets to parent-granularity
	// conversions (source radius 2a, in child-side units).
	t2Super [4]map[geom.Coord2]translation

	interactive [4][]geom.Coord2
	supers      [4]tree.Supernodes2
	nearOff     []geom.Coord2

	rec  metrics.Rec
	snap metrics.Snapshot
}

// Stats returns the per-phase instrumentation accumulated over all solves
// so far. The snapshot is owned by the Solver and refreshed on each call.
func (s *Solver) Stats() *metrics.Snapshot {
	s.rec.ReadInto(&s.snap)
	return &s.snap
}

// Rec exposes the live recorder.
func (s *Solver) Rec() *metrics.Rec { return &s.rec }

// translationFlops is the flop count of one translation application:
// a K x K Dgemv plus the K-length log-term Daxpy.
func translationFlops(k int) int64 { return blas.DgemvFlops(k, k) + 2*int64(k) }

// NewSolver builds the solver and precomputes all translation matrices.
func NewSolver(root geom.Box2, cfg Config) (*Solver, error) {
	ncfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	h, err := tree.NewHierarchy2(root, ncfg.Depth)
	if err != nil {
		return nil, err
	}
	s := &Solver{cfg: ncfg, hier: h, rule: sphere.Circle(ncfg.K)}
	pipeline.Setup(&s.rec, s.buildMatrices)
	for qd := 0; qd < 4; qd++ {
		s.interactive[qd] = tree.InteractiveOffsets2(ncfg.Separation, qd)
		if ncfg.Supernodes {
			s.supers[qd] = tree.SupernodeDecomposition2(ncfg.Separation, qd)
		}
	}
	s.nearOff = tree.NearOffsets2(ncfg.Separation)
	return s, nil
}

// quadrantOffset returns the child-center offset from the parent center in
// child-side units.
func quadrantOffset(qd int) geom.Vec2 {
	v := geom.Vec2{X: -0.5, Y: -0.5}
	if qd&1 != 0 {
		v.X = 0.5
	}
	if qd&2 != 0 {
		v.Y = 0.5
	}
	return v
}

func (s *Solver) buildMatrices() {
	cfg := s.cfg
	k := cfg.K
	rule := s.rule
	aC := cfg.RadiusRatio     // child radius, child-side units
	aP := 2 * cfg.RadiusRatio // parent radius

	// T1: parent residual values from child (Q, h):
	//   h_p[i] = u_c(p_i) - Q ln r_i + Q ln aP
	// where p_i is the parent circle point relative to the child center.
	for qd := 0; qd < 4; qd++ {
		cc := quadrantOffset(qd)
		t := translation{a: blas.NewMatrix(k, k), v: make([]float64, k)}
		t3 := blas.NewMatrix(k, k)
		for i, si := range rule.Points {
			xp := si.Scale(aP).Sub(cc)
			rp := xp.Norm()
			tp := xp.Angle()
			t.v[i] = -math.Log(rp) + math.Log(aP)
			// T3 destination: child inner point relative to parent center.
			xc := cc.Add(si.Scale(aC))
			rc := xc.Norm()
			tc := xc.Angle()
			for j := range rule.Points {
				t.a.Set(i, j, rule.W[j]*outerKernel2(cfg.M, aC, rp, tp-rule.Angles[j]))
				t3.Set(i, j, rule.W[j]*innerKernel2(cfg.M, aP, rc, tc-rule.Angles[j]))
			}
		}
		s.t1[qd] = t
		s.t3[qd] = t3
	}

	// T2 for all offsets in the indexing square.
	b := 2*cfg.Separation + 1
	side := 2*b + 1
	s.t2Side = side
	s.t2 = make([]translation, side*side)
	for dy := -b; dy <= b; dy++ {
		for dx := -b; dx <= b; dx++ {
			o := geom.Coord2{X: dx, Y: dy}
			if o.ChebDist(geom.Coord2{}) <= cfg.Separation {
				continue
			}
			// Source = target + o: target center at -o from source.
			rel := geom.Vec2{X: -float64(dx), Y: -float64(dy)}
			t := translation{a: blas.NewMatrix(k, k), v: make([]float64, k)}
			for i, si := range rule.Points {
				x := rel.Add(si.Scale(aC))
				r := x.Norm()
				th := x.Angle()
				t.v[i] = -math.Log(r)
				for j := range rule.Points {
					t.a.Set(i, j, rule.W[j]*outerKernel2(cfg.M, aC, r, th-rule.Angles[j]))
				}
			}
			s.t2[s.t2Index(o)] = t
		}
	}

	// Supernode matrices: parent-level sources (side 2, radius 2a) in
	// child-side units.
	if cfg.Supernodes {
		aS := 2 * cfg.RadiusRatio
		for qd := 0; qd < 4; qd++ {
			sn := tree.SupernodeDecomposition2(cfg.Separation, qd)
			mm := make(map[geom.Coord2]translation, len(sn.ParentOffsets))
			delta := quadrantOffset(qd)
			for _, tt := range sn.ParentOffsets {
				// Target child center relative to source parent center.
				rel := delta.Sub(geom.Vec2{X: float64(2 * tt.X), Y: float64(2 * tt.Y)})
				t := translation{a: blas.NewMatrix(k, k), v: make([]float64, k)}
				for i, si := range rule.Points {
					x := rel.Add(si.Scale(aC))
					r := x.Norm()
					th := x.Angle()
					t.v[i] = -math.Log(r)
					for j := range rule.Points {
						t.a.Set(i, j, rule.W[j]*outerKernel2(cfg.M, aS, r, th-rule.Angles[j]))
					}
				}
				mm[tt] = t
			}
			s.t2Super[qd] = mm
		}
	}
}

func (s *Solver) t2Index(o geom.Coord2) int {
	b := (s.t2Side - 1) / 2
	return (o.Y+b)*s.t2Side + (o.X + b)
}

// Solve computes phi_i = -sum_{j != i} q_j ln|x_i - x_j| into phi
// (len(pos) entries). A nil ctx means no cancellation; otherwise ctx is
// checked between phases and in every parallel sweep's chunk-claim loop, so a
// canceled context returns ctx.Err() within about one chunk's work.
func (s *Solver) Solve(ctx context.Context, pos []geom.Vec2, q []float64, phi []float64) error {
	if len(pos) != len(q) {
		return fmt.Errorf("core2: %d positions but %d charges", len(pos), len(q))
	}
	if len(phi) != len(pos) {
		return fmt.Errorf("core2: %d potentials for %d positions", len(phi), len(pos))
	}
	root := s.hier.Root
	hs := root.Side / 2
	for _, p := range pos {
		// Negated form so NaN coordinates (for which every comparison is
		// false) are rejected along with out-of-domain points.
		ok := math.Abs(p.X-root.Center.X) <= hs && math.Abs(p.Y-root.Center.Y) <= hs
		if !ok {
			return fmt.Errorf("core2: particle %v outside domain", p)
		}
	}
	depth := s.cfg.Depth
	k := s.cfg.K
	n := s.hier.GridSize(depth)
	s.rec.SetShape(len(pos), depth, k)

	// Per-solve state the phases close over: the counting-sort permutation
	// and the per-level far/monopole/local storage. Allocation is untimed, as
	// before the phase-runner refactor.
	nb := n * n
	start := make([]int, nb+1)
	boxOf := make([]int, len(pos))
	perm := make([]int, len(pos))
	boxParticles := func(b int) []int { return perm[start[b]:start[b+1]] }

	// Far-field storage: residual values and monopoles per level.
	far := make([][]float64, depth+1)
	mono := make([][]float64, depth+1)
	loc := make([][]float64, depth+1)
	for l := 2; l <= depth; l++ {
		gl := s.hier.GridSize(l)
		far[l] = make([]float64, gl*gl*k)
		mono[l] = make([]float64, gl*gl)
		loc[l] = make([]float64, gl*gl*k)
	}
	a := s.cfg.RadiusRatio * s.hier.BoxSide(depth)

	phases := []pipeline.Phase{
		// Partition (counting sort to leaf boxes).
		{Name: metrics.PhaseSort, Site: FaultSiteSort, Run: func(context.Context) error {
			for i, p := range pos {
				b := s.hier.LeafOf(p).Index(n)
				boxOf[i] = b
				start[b+1]++
			}
			for b := 0; b < nb; b++ {
				start[b+1] += start[b]
			}
			fill := make([]int, nb)
			for i := range pos {
				b := boxOf[i]
				perm[start[b]+fill[b]] = i
				fill[b]++
			}
			return nil
		}},
		// Step 1: leaf outer representations.
		{Name: metrics.PhaseLeafOuter, Site: FaultSiteLeafOuter,
			Slice: func() []float64 { return far[depth] },
			Run: func(ctx context.Context) error {
				err := sched.RunCtx(ctx, nb, func(b int) {
					idx := boxParticles(b)
					if len(idx) == 0 {
						return
					}
					c := geom.Coord2FromIndex(b, n)
					center := s.hier.Box(depth, c).Center
					var totQ float64
					for _, j := range idx {
						totQ += q[j]
					}
					mono[depth][b] = totQ
					g := far[depth][b*k : (b+1)*k]
					for i, si := range s.rule.Points {
						p := center.Add(si.Scale(a))
						var v float64
						for _, j := range idx {
							v -= q[j] * math.Log(p.Dist(pos[j]))
						}
						g[i] = v + totQ*math.Log(a)
					}
				})
				s.rec.AddFlops(metrics.PhaseLeafOuter, int64(len(pos))*int64(k)*direct.FlopsPerPair)
				return err
			}},
		// Step 2: upward pass. Matrices are in child-side units, so they are
		// level-independent, but the log terms reference the child-level
		// radius: rescaling a by 2 per level changes h by Q ln 2 ... the
		// matrices already absorb this because h values are built against the
		// level's own radius and the kernels are scale-free in a/r. The Q ln a
		// bookkeeping is handled by the translation vectors (built in units of
		// the child side, adding Q ln(aP/a_child-units) consistently).
		{Name: metrics.PhaseT1, Site: FaultSiteT1,
			Slice: func() []float64 { return far[2] },
			Run: func(ctx context.Context) error {
				for l := depth - 1; l >= 2; l-- {
					np := s.hier.GridSize(l)
					nc := s.hier.GridSize(l + 1)
					if err := sched.RunCtx(ctx, np*np, func(pb int) {
						pc := geom.Coord2FromIndex(pb, np)
						dst := far[l][pb*k : (pb+1)*k]
						for qd := 0; qd < 4; qd++ {
							cb := pc.Child(qd).Index(nc)
							s.t1[qd].apply(mono[l+1][cb], far[l+1][cb*k:(cb+1)*k], dst)
							mono[l][pb] += mono[l+1][cb]
						}
					}); err != nil {
						return err
					}
					s.rec.AddFlops(metrics.PhaseT1, 4*int64(np*np)*translationFlops(k))
				}
				return nil
			}},
	}

	// Step 3: downward pass, one T3/T2 phase pair per level.
	for l := 2; l <= depth; l++ {
		gl := s.hier.GridSize(l)
		gp := s.hier.GridSize(l - 1)
		if l > 2 {
			phases = append(phases, pipeline.Phase{
				Name: metrics.PhaseT3, Site: FaultSiteT3,
				Slice: func() []float64 { return loc[l] },
				Run: func(ctx context.Context) error {
					err := sched.RunCtx(ctx, gl*gl, func(cb int) {
						cc := geom.Coord2FromIndex(cb, gl)
						pb := cc.Parent().Index(gp)
						blas.Dgemv(s.t3[cc.Quadrant()], loc[l-1][pb*k:(pb+1)*k], loc[l][cb*k:(cb+1)*k])
					})
					s.rec.AddFlops(metrics.PhaseT3, int64(gl*gl)*blas.DgemvFlops(k, k))
					return err
				}})
		}
		// The T2 log vectors are built in box-side units; the absolute
		// distance is (units * side), so each source contributes an extra
		// -Q ln(side) to every inner value at this level.
		lnSide := math.Log(s.hier.BoxSide(l))
		useSuper := s.cfg.Supernodes && l > 2
		phases = append(phases, pipeline.Phase{
			Name: metrics.PhaseT2, Site: FaultSiteT2,
			Slice: func() []float64 { return loc[l] },
			Run: func(ctx context.Context) error {
				var t2Count atomic.Int64
				err := sched.RunCtx(ctx, gl*gl, func(cb int) {
					cc := geom.Coord2FromIndex(cb, gl)
					qd := cc.Quadrant()
					dst := loc[l][cb*k : (cb+1)*k]
					var msum float64
					var applied int64
					if useSuper {
						pc := cc.Parent()
						for _, tt := range s.supers[qd].ParentOffsets {
							sp := pc.Add(tt)
							if !sp.In(gp) {
								continue
							}
							pb := sp.Index(gp)
							s.t2Super[qd][tt].apply(mono[l-1][pb], far[l-1][pb*k:(pb+1)*k], dst)
							msum += mono[l-1][pb]
							applied++
						}
						for _, o := range s.supers[qd].ChildOffsets {
							sc := cc.Add(o)
							if !sc.In(gl) {
								continue
							}
							sb := sc.Index(gl)
							s.t2[s.t2Index(o)].apply(mono[l][sb], far[l][sb*k:(sb+1)*k], dst)
							msum += mono[l][sb]
							applied++
						}
					} else {
						for _, o := range s.interactive[qd] {
							sc := cc.Add(o)
							if !sc.In(gl) {
								continue
							}
							sb := sc.Index(gl)
							s.t2[s.t2Index(o)].apply(mono[l][sb], far[l][sb*k:(sb+1)*k], dst)
							msum += mono[l][sb]
							applied++
						}
					}
					if msum != 0 {
						for i := range dst {
							dst[i] -= msum * lnSide
						}
					}
					t2Count.Add(applied)
				})
				nT2 := t2Count.Load()
				s.rec.AddT2(nT2)
				s.rec.AddFlops(metrics.PhaseT2, nT2*translationFlops(k))
				return err
			}})
	}

	phases = append(phases,
		// Step 4: evaluate local fields at the particles.
		pipeline.Phase{Name: metrics.PhaseEvalLocal, Site: FaultSiteEval,
			Slice: func() []float64 { return phi },
			Run: func(ctx context.Context) error {
				err := sched.RunCtx(ctx, nb, func(b int) {
					idx := boxParticles(b)
					if len(idx) == 0 {
						return
					}
					c := geom.Coord2FromIndex(b, n)
					center := s.hier.Box(depth, c).Center
					g := loc[depth][b*k : (b+1)*k]
					for _, j := range idx {
						d := pos[j].Sub(center)
						r := d.Norm()
						var v float64
						if r == 0 {
							for i := range s.rule.Points {
								v += s.rule.W[i] * g[i]
							}
						} else {
							th := d.Angle()
							for i := range s.rule.Points {
								v += s.rule.W[i] * g[i] * innerKernel2(s.cfg.M, a, r, th-s.rule.Angles[i])
							}
						}
						phi[j] = v
					}
				})
				// Each (particle, circle point) evaluation runs M Fourier
				// terms of the interior kernel at ~4 flops per term plus the
				// weighted accumulate.
				s.rec.AddFlops(metrics.PhaseEvalLocal, int64(len(pos))*int64(k)*int64(4*s.cfg.M+3))
				return err
			}},
		// Step 5: near field, one-sided plus intra-box.
		pipeline.Phase{Name: metrics.PhaseNear, Site: FaultSiteNear,
			Slice: func() []float64 { return phi },
			Run: func(ctx context.Context) error {
				var nearPairs atomic.Int64
				err := sched.RunCtx(ctx, nb, func(b int) {
					idx := boxParticles(b)
					if len(idx) == 0 {
						return
					}
					c := geom.Coord2FromIndex(b, n)
					var local int64
					for _, o := range s.nearOff {
						sc := c.Add(o)
						if !sc.In(n) {
							continue
						}
						src := boxParticles(sc.Index(n))
						kernels.LogAccumulate(pos, q, phi, idx, src)
						local += int64(len(idx)) * int64(len(src))
					}
					kernels.LogWithin(pos, q, phi, idx)
					local += int64(len(idx)) * int64(len(idx)-1)
					nearPairs.Add(local)
				})
				np := nearPairs.Load()
				s.rec.AddNearPairs(np)
				s.rec.AddFlops(metrics.PhaseNear, np*direct.FlopsPerPair)
				return err
			}},
	)

	return pipeline.Run(ctx, &s.rec, "core2", phases)
}

// DirectPotentials2 is the 2-D direct reference: phi_i = -sum q_j ln r_ij.
func DirectPotentials2(pos []geom.Vec2, q []float64) []float64 {
	phi := make([]float64, len(pos))
	sched.Run(len(pos), func(i int) {
		var v float64
		for j := range pos {
			if i == j {
				continue
			}
			// Skip coincident pairs, matching the solver's self-exclusion
			// convention for duplicated positions.
			if r := pos[i].Dist(pos[j]); r > 0 {
				v -= q[j] * math.Log(r)
			}
		}
		phi[i] = v
	})
	return phi
}
