package nbody

import (
	"context"
	"errors"
	"fmt"

	"nbody/internal/bh"
	"nbody/internal/core"
	"nbody/internal/core2"
	"nbody/internal/direct"
	"nbody/internal/dp"
	"nbody/internal/dpfmm"
	"nbody/internal/metrics"
)

// Accuracy selects a calibrated parameter preset for Anderson's method,
// mirroring the paper's two headline configurations.
type Accuracy int

// The presets.
const (
	// Fast is the paper's low-accuracy configuration: the 12-point
	// icosahedral rule (integration order D = 5), about four digits
	// relative to the mean field.
	Fast Accuracy = iota
	// Balanced is an intermediate configuration (D = 9).
	Balanced
	// Accurate approximates the paper's D = 14 configuration with the
	// degree-13 product rule, about six to seven digits.
	Accurate
)

func (a Accuracy) degree() int {
	switch a {
	case Fast:
		return 5
	case Balanced:
		return 9
	default:
		return 13
	}
}

// Options configures an Anderson solver. The zero value selects the Fast
// preset with an automatically chosen hierarchy depth.
type Options struct {
	// Accuracy selects a preset; ignored when Degree is set explicitly.
	Accuracy Accuracy
	// Degree overrides the integration order D.
	Degree int
	// M overrides the Legendre truncation (default ceil(D/2)).
	M int
	// Depth fixes the hierarchy depth; 0 chooses the optimal depth for the
	// first solved system (Section 2.3) and keeps it thereafter.
	Depth int
	// Separation overrides the near-field separation (default 2).
	Separation int
	// Supernodes enables the 875 -> 189 interactive-field reduction.
	Supernodes bool
	// RadiusRatio overrides the sphere radius in box-side units.
	RadiusRatio float64
	// DisableAggregation turns off BLAS-3 translation aggregation.
	DisableAggregation bool
}

// validate rejects nonsensical option values at construction time, wrapping
// ErrInvalidOptions, so a misconfigured solver fails in NewAnderson /
// NewDataParallel rather than deep inside plan building on the first solve.
func (o Options) validate() error {
	switch {
	case o.Degree < 0:
		return fmt.Errorf("%w: negative Degree %d", ErrInvalidOptions, o.Degree)
	case o.M < 0:
		return fmt.Errorf("%w: negative M %d", ErrInvalidOptions, o.M)
	case o.Depth < 0:
		return fmt.Errorf("%w: negative Depth %d", ErrInvalidOptions, o.Depth)
	case o.Depth == 1:
		return fmt.Errorf("%w: Depth 1 has no interactive field (need Depth >= 2, or 0 for automatic)", ErrInvalidOptions)
	case o.Separation < 0:
		return fmt.Errorf("%w: negative Separation %d", ErrInvalidOptions, o.Separation)
	case o.RadiusRatio < 0:
		return fmt.Errorf("%w: negative RadiusRatio %g", ErrInvalidOptions, o.RadiusRatio)
	}
	// Dry-run the core normalizer so invalid parameter combinations (a
	// RadiusRatio too small to enclose a box, an unsupported Separation,
	// a Degree with no integration rule) also fail here. The probe depth
	// stands in when the real depth is chosen at first solve.
	depth := o.Depth
	if depth == 0 {
		depth = 2
	}
	if _, err := o.coreConfig(depth).Normalized(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return nil
}

func (o Options) coreConfig(depth int) core.Config {
	deg := o.Degree
	if deg == 0 {
		deg = o.Accuracy.degree()
	}
	return core.Config{
		Degree:             deg,
		M:                  o.M,
		Depth:              depth,
		Separation:         o.Separation,
		Supernodes:         o.Supernodes,
		RadiusRatio:        o.RadiusRatio,
		DisableAggregation: o.DisableAggregation,
	}
}

// Anderson is the shared-memory O(N) solver.
type Anderson struct {
	box    Box
	opts   Options
	solver *core.Solver
}

// NewAnderson builds an Anderson solver over the given domain. Invalid
// options are rejected here with an error wrapping ErrInvalidOptions.
func NewAnderson(box Box, opts Options) (*Anderson, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	a := &Anderson{box: box, opts: opts}
	if opts.Depth != 0 {
		s, err := core.NewSolver(box, opts.coreConfig(opts.Depth))
		if err != nil {
			return nil, err
		}
		a.solver = s
	}
	return a, nil
}

func (a *Anderson) ensureSolver(n int) error {
	if a.solver != nil {
		return nil
	}
	depth := core.OptimalDepth(n, 32)
	s, err := core.NewSolver(a.box, a.opts.coreConfig(depth))
	if err != nil {
		return err
	}
	a.solver = s
	return nil
}

// Name identifies the solver in comparison tables.
func (a *Anderson) Name() string { return "anderson" }

// prepare validates the system against the solver domain and lazily builds
// the core solver — the shared prologue of every entry point.
func (a *Anderson) prepare(s *System) error {
	if err := s.Validate(a.box); err != nil {
		return err
	}
	return a.ensureSolver(s.Len())
}

// activeRec exposes the phase recorder for panic attribution (nil before the
// first solve builds the core solver).
func (a *Anderson) activeRec() *metrics.Rec {
	if a.solver == nil {
		return nil
	}
	return a.solver.Rec()
}

func (a *Anderson) solveInto(ctx context.Context, s *System, phi []float64, acc []Vec3) error {
	return guard(a.activeRec, func() error { return a.prepare(s) }, func() error {
		return a.solver.Solve(ctx, s.Positions, s.Charges, phi, acc)
	})
}

// Potentials computes the potential at every particle of the system. Invalid
// systems are rejected with ErrInvalidSystem or ErrOutOfDomain; an internal
// panic is recovered and returned as an *InternalError naming the active
// phase, after which the solver remains usable (see InternalError's
// safe-to-retry contract).
func (a *Anderson) Potentials(s *System) ([]float64, error) {
	return potentials(nil, a, s)
}

// PotentialsCtx is Potentials with cancellation: a canceled or expired
// context aborts the solve between phases and within the parallel sweeps of
// each phase (within at most one work chunk), returning ctx.Err().
func (a *Anderson) PotentialsCtx(ctx context.Context, s *System) ([]float64, error) {
	return potentials(ctx, a, s)
}

// Accelerations computes potentials and the field +grad phi, under the same
// validation and panic-containment contract as Potentials.
func (a *Anderson) Accelerations(s *System) ([]float64, []Vec3, error) {
	return accelerations(nil, a, s)
}

// AccelerationsCtx is Accelerations with cancellation, under the same
// latency bound as PotentialsCtx.
func (a *Anderson) AccelerationsCtx(ctx context.Context, s *System) ([]float64, []Vec3, error) {
	return accelerations(ctx, a, s)
}

// PotentialsInto computes the potentials into the caller-owned slice phi
// (length s.Len()). Repeated solves on one Anderson reuse all internal
// buffers — steady state allocates nothing and is bitwise reproducible.
// One solve at a time per solver. On an *InternalError return, phi may hold
// partial results but no goroutine retains a reference to it; reuse or
// retry is safe.
func (a *Anderson) PotentialsInto(phi []float64, s *System) error {
	return a.solveInto(nil, s, phi, nil)
}

// PotentialsIntoCtx is PotentialsInto with cancellation.
func (a *Anderson) PotentialsIntoCtx(ctx context.Context, phi []float64, s *System) error {
	return a.solveInto(ctx, s, phi, nil)
}

// AccelerationsInto computes potentials and fields into caller-owned slices
// (each length s.Len()), under the same reuse contract as PotentialsInto.
// This is the time-stepping path: Simulation uses it automatically.
func (a *Anderson) AccelerationsInto(phi []float64, acc []Vec3, s *System) error {
	return a.AccelerationsIntoCtx(nil, phi, acc, s)
}

// AccelerationsIntoCtx is AccelerationsInto with cancellation.
func (a *Anderson) AccelerationsIntoCtx(ctx context.Context, phi []float64, acc []Vec3, s *System) error {
	if acc == nil {
		return errNilAcc
	}
	return a.solveInto(ctx, s, phi, acc)
}

// PotentialsAt evaluates the field of the system's charges at arbitrary
// probe points inside the domain (no self-exclusion).
func (a *Anderson) PotentialsAt(s *System, targets []Vec3) ([]float64, error) {
	var phi []float64
	err := guard(a.activeRec, func() error { return a.prepare(s) }, func() (err error) {
		phi, err = a.solver.PotentialsAt(s.Positions, s.Charges, targets)
		return err
	})
	return phi, err
}

// Stats exposes the per-phase instrumentation of all solves so far.
func (a *Anderson) Stats() *core.Stats {
	if a.solver == nil {
		return &core.Stats{}
	}
	return a.solver.Stats()
}

// Depth returns the hierarchy depth in use (0 before the first solve when
// auto-selected).
func (a *Anderson) Depth() int {
	if a.solver == nil {
		return 0
	}
	return a.solver.Config().Depth
}

// BarnesHut is the O(N log N) baseline solver.
type BarnesHut struct {
	box Box
	cfg bh.Config
	// LastStats holds the traversal statistics of the most recent solve.
	LastStats bh.Stats
}

// NewBarnesHut builds a Barnes-Hut solver with opening angle theta
// (0 selects 0.6) and quadrupole cell expansions.
func NewBarnesHut(box Box, theta float64) *BarnesHut {
	return &BarnesHut{box: box, cfg: bh.Config{Theta: theta, Quadrupole: true}}
}

// Name identifies the solver in comparison tables.
func (b *BarnesHut) Name() string { return "barnes-hut" }

func (b *BarnesHut) solveInto(ctx context.Context, s *System, phi []float64, acc []Vec3) error {
	if acc != nil {
		return errNoField(b)
	}
	return guard(nil, func() error { return ctxErr(ctx) }, func() error {
		tr, err := bh.Build(b.box, s.Positions, s.Charges, b.cfg)
		if err != nil {
			return err
		}
		var p []float64
		p, b.LastStats = tr.Potentials(b.cfg)
		copy(phi, p)
		return nil
	})
}

// Potentials computes the potential at every particle.
func (b *BarnesHut) Potentials(s *System) ([]float64, error) {
	return potentials(nil, b, s)
}

// Direct is the O(N^2) baseline solver.
type Direct struct{}

// NewDirect returns the direct-summation solver.
func NewDirect() *Direct { return &Direct{} }

// Name identifies the solver in comparison tables.
func (Direct) Name() string { return "direct" }

func (Direct) solveInto(ctx context.Context, s *System, phi []float64, acc []Vec3) error {
	return guard(nil, func() error { return ctxErr(ctx) }, func() error {
		copy(phi, direct.PotentialsParallel(s.Positions, s.Charges))
		if acc != nil {
			copy(acc, direct.Accelerations(s.Positions, s.Charges))
		}
		return nil
	})
}

// Potentials computes the exact potentials by direct summation.
func (Direct) Potentials(s *System) ([]float64, error) {
	return potentials(nil, Direct{}, s)
}

// Accelerations computes the exact accelerations by direct summation.
func (Direct) Accelerations(s *System) []Vec3 {
	return direct.Accelerations(s.Positions, s.Charges)
}

// Solver is the interface all 3-D solvers satisfy.
type Solver interface {
	Name() string
	Potentials(*System) ([]float64, error)
}

// intoSolver is the one solve contract every 3-D solver of this package
// implements, and the one a Resilient ladder drives. solveInto computes the
// potentials of s into phi and, when acc is non-nil, the field +grad phi
// into acc (each s.Len() long); a nil ctx means no cancellation. It validates
// s, returns a panic as an *InternalError, and answers a field it cannot
// compute with errRungUnsupported. Every public solve method is a call into
// it; a Solver from outside the package reaches it through foreignSolver.
type intoSolver interface {
	Solver
	solveInto(ctx context.Context, s *System, phi []float64, acc []Vec3) error
}

var (
	_ intoSolver = (*Anderson)(nil)
	_ intoSolver = (*DataParallel)(nil)
	_ intoSolver = (*BarnesHut)(nil)
	_ intoSolver = Direct{}
	_ intoSolver = (*Resilient)(nil)
)

// potentials and accelerations are the allocating forms of the contract:
// fresh output slices, nil ones on error.
func potentials(ctx context.Context, sv intoSolver, s *System) ([]float64, error) {
	phi := make([]float64, s.Len())
	if err := sv.solveInto(ctx, s, phi, nil); err != nil {
		return nil, err
	}
	return phi, nil
}

func accelerations(ctx context.Context, sv intoSolver, s *System) ([]float64, []Vec3, error) {
	phi, acc := make([]float64, s.Len()), make([]Vec3, s.Len())
	if err := sv.solveInto(ctx, s, phi, acc); err != nil {
		return nil, nil, err
	}
	return phi, acc, nil
}

// errNilAcc rejects a nil acc handed to an AccelerationsInto form, which the
// contract would read as a potentials-only solve.
var errNilAcc = errors.New("nbody: AccelerationsInto needs a non-nil acc")

// errNoField is a solver's answer to a field it cannot compute; a Resilient
// ladder skips such a rung without burning attempts.
func errNoField(s Solver) error {
	return fmt.Errorf("%w: %s cannot compute accelerations", errRungUnsupported, s.Name())
}

// foreignSolver adapts a Solver from outside this package to the contract
// through its public methods: Potentials, and Accelerations when it is an
// Accelerator (asserted once, at wrapping). Neither takes a context, so ctx
// is checked once before the call; a panic the solver lets escape is
// contained here.
type foreignSolver struct {
	Solver
	accel Accelerator // nil: potentials only
}

func newForeignSolver(s Solver) foreignSolver {
	a, _ := s.(Accelerator)
	return foreignSolver{Solver: s, accel: a}
}

func (f foreignSolver) solveInto(ctx context.Context, s *System, phi []float64, acc []Vec3) error {
	if acc != nil && f.accel == nil {
		return errNoField(f)
	}
	return guard(nil, func() error { return ctxErr(ctx) }, func() error {
		if acc == nil {
			p, err := f.Potentials(s)
			copy(phi, p)
			return err
		}
		p, g, err := f.accel.Accelerations(s)
		copy(phi, p)
		copy(acc, g)
		return err
	})
}

// DataParallel runs Anderson's method on the simulated CM-5-class machine
// and reports the paper's efficiency metrics.
type DataParallel struct {
	Machine *dpfmm.Solver
	m       *dp.Machine
	box     Box
}

// NewDataParallel builds the data-parallel solver on a machine of the given
// number of nodes (4 VUs each, CM-5E cost model). Depth must be set in
// opts.
func NewDataParallel(nodes int, box Box, opts Options, strategy dpfmm.GhostStrategy) (*DataParallel, error) {
	if opts.Depth == 0 {
		return nil, fmt.Errorf("%w: data-parallel solver needs an explicit Depth", ErrInvalidOptions)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	m, err := dp.NewMachine(nodes, 4, dp.CostModel{})
	if err != nil {
		return nil, err
	}
	s, err := dpfmm.NewSolver(m, box, opts.coreConfig(opts.Depth), strategy)
	if err != nil {
		return nil, err
	}
	return &DataParallel{Machine: s, m: m, box: box}, nil
}

// Name identifies the solver in comparison tables.
func (d *DataParallel) Name() string { return "anderson-dp" }

func (d *DataParallel) solveInto(ctx context.Context, s *System, phi []float64, acc []Vec3) error {
	return guard(d.Machine.Rec, func() error { return s.Validate(d.box) }, func() error {
		return d.Machine.Solve(ctx, s.Positions, s.Charges, phi, acc)
	})
}

// Potentials solves on the simulated machine, under the same validation and
// panic-containment contract as Anderson.Potentials.
func (d *DataParallel) Potentials(s *System) ([]float64, error) {
	return potentials(nil, d, s)
}

// PotentialsCtx is Potentials with cancellation. The simulated machine's
// collective sweeps are not individually interruptible, so cancellation is
// observed between pipeline phases: the latency bound is one phase, not one
// chunk.
func (d *DataParallel) PotentialsCtx(ctx context.Context, s *System) ([]float64, error) {
	return potentials(ctx, d, s)
}

// Accelerations computes potentials and fields on the simulated machine.
func (d *DataParallel) Accelerations(s *System) ([]float64, []Vec3, error) {
	return accelerations(nil, d, s)
}

// Report assembles the Table 1 metrics of everything run so far.
func (d *DataParallel) Report(name string, particles int) metrics.Report {
	return metrics.FromMachine(name, d.m, d.m.Counters(), particles)
}

// ResetCounters clears the machine instrumentation.
func (d *DataParallel) ResetCounters() { d.m.ResetCounters() }

// Anderson2D is the two-dimensional solver.
type Anderson2D struct {
	solver *core2.Solver
	box    Box2D
}

// Options2D configures the 2-D solver.
type Options2D struct {
	K           int // circle points (default 16)
	M           int
	Depth       int // required
	Separation  int
	RadiusRatio float64
}

// validate rejects nonsensical 2-D option values at construction, wrapping
// ErrInvalidOptions like the 3-D counterpart.
func (o Options2D) validate() error {
	switch {
	case o.K < 0:
		return fmt.Errorf("%w: negative K %d", ErrInvalidOptions, o.K)
	case o.M < 0:
		return fmt.Errorf("%w: negative M %d", ErrInvalidOptions, o.M)
	case o.Depth < 0:
		return fmt.Errorf("%w: negative Depth %d", ErrInvalidOptions, o.Depth)
	case o.Separation < 0:
		return fmt.Errorf("%w: negative Separation %d", ErrInvalidOptions, o.Separation)
	case o.RadiusRatio < 0:
		return fmt.Errorf("%w: negative RadiusRatio %g", ErrInvalidOptions, o.RadiusRatio)
	}
	return nil
}

// NewAnderson2D builds the 2-D solver. Invalid options are rejected with an
// error wrapping ErrInvalidOptions.
func NewAnderson2D(box Box2D, opts Options2D) (*Anderson2D, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.K == 0 {
		opts.K = 16
	}
	s, err := core2.NewSolver(box, core2.Config{
		K: opts.K, M: opts.M, Depth: opts.Depth,
		Separation: opts.Separation, RadiusRatio: opts.RadiusRatio,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return &Anderson2D{solver: s, box: box}, nil
}

// Potentials computes phi_i = -sum q_j ln r_ij at every particle, under the
// same validation and panic-containment contract as the 3-D solver.
func (a *Anderson2D) Potentials(pos []Vec2, q []float64) ([]float64, error) {
	return a.PotentialsCtx(nil, pos, q)
}

// PotentialsCtx is Potentials with cancellation: a canceled context aborts
// between phases and within parallel sweeps, returning ctx.Err().
func (a *Anderson2D) PotentialsCtx(ctx context.Context, pos []Vec2, q []float64) ([]float64, error) {
	phi := make([]float64, len(pos))
	err := guard(a.solver.Rec, func() error { return validate2D(pos, q, a.box) }, func() error {
		return a.solver.Solve(ctx, pos, q, phi)
	})
	if err != nil {
		return nil, err
	}
	return phi, nil
}

// Stats exposes the 2-D solver's per-phase instrumentation.
func (a *Anderson2D) Stats() *metrics.Snapshot { return a.solver.Stats() }

// DirectPotentials2D is the 2-D direct reference.
func DirectPotentials2D(pos []Vec2, q []float64) []float64 {
	return core2.DirectPotentials2(pos, q)
}
