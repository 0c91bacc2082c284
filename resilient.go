package nbody

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"nbody/internal/resilience"
)

// RetryPolicy configures a Resilient solver's supervisor. The zero value
// selects the defaults documented on each field; there are no required
// fields.
type RetryPolicy struct {
	// MaxAttempts is the attempt budget per rung (default 3); a rung's
	// first attempt is not a retry.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry (default 5ms); each
	// further retry multiplies it by BackoffMultiplier (default 2) up to
	// MaxBackoff (default 1s), with ±Jitter relative spread (default 0.2).
	BaseBackoff       time.Duration
	MaxBackoff        time.Duration
	BackoffMultiplier float64
	Jitter            float64
	// AttemptTimeout bounds each attempt; 0 derives a per-attempt budget
	// from the caller's context deadline when one exists (remaining time
	// divided evenly among the rung's remaining attempts).
	AttemptTimeout time.Duration
	// BreakerThreshold consecutive failures open a rung's circuit breaker
	// for BreakerCooldown (default 1s); 0 disables breakers. An open
	// breaker skips the rung outright until the cooldown expires.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// policy converts the public knobs to the supervisor's Policy, installing
// this package's error taxonomy as the classifier.
func (p RetryPolicy) policy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts:      p.MaxAttempts,
		BaseBackoff:      p.BaseBackoff,
		MaxBackoff:       p.MaxBackoff,
		Multiplier:       p.BackoffMultiplier,
		Jitter:           p.Jitter,
		AttemptTimeout:   p.AttemptTimeout,
		BreakerThreshold: p.BreakerThreshold,
		BreakerCooldown:  p.BreakerCooldown,
		Classify:         classifyError,
	}
}

// errRungUnsupported marks a ladder rung that cannot perform the requested
// operation at all (a potentials-only solver asked for accelerations); the
// supervisor skips such rungs without burning retry attempts.
var errRungUnsupported = errors.New("nbody: rung does not support this operation")

// Resilient wraps a degradation ladder of solvers behind the retry
// supervisor, turning the *InternalError safe-to-retry contract into
// self-healing solves: a failed attempt is retried with backoff, a rung
// that keeps failing (or whose circuit breaker is open) is abandoned for
// the next rung, and only a ladder-wide failure reaches the caller.
//
// Rung 0 is the preferred backend; later rungs are fallbacks in order,
// e.g. DataParallel → Anderson → BarnesHut → Direct. Every rung serves
// potentials. Every rung of this package but BarnesHut serves forces too,
// Direct included, and so does a Solver from outside it that is also an
// Accelerator; the acceleration entry points skip the others without
// burning attempts. Validation errors (ErrInvalidSystem, ErrOutOfDomain)
// abort the whole ladder — no fallback can repair a malformed input.
//
// Like the solvers it wraps, a Resilient runs one solve at a time. The
// happy path — first rung, first attempt succeeds — adds no retries, no
// metrics traffic, and (on the Into entry points over an Anderson rung) no
// allocations.
type Resilient struct {
	rungs []intoSolver
	sup   *resilience.Supervisor
	name  string

	lastRung atomic.Int32

	// The solve in flight. The prebuilt attempt closure reads it, so it
	// carries no per-call state (the zero-allocation happy path).
	sys *System
	phi []float64
	acc []Vec3

	attemptFn func(ctx context.Context, rung int) error
}

// NewResilient builds a Resilient over the given ladder (rung 0 first).
// At least one rung is required and every rung must be non-nil; violations
// are reported with ErrInvalidOptions.
func NewResilient(p RetryPolicy, rungs ...Solver) (*Resilient, error) {
	if len(rungs) == 0 {
		return nil, fmt.Errorf("%w: resilient ladder needs at least one rung", ErrInvalidOptions)
	}
	names := make([]string, len(rungs))
	ladder := make([]intoSolver, len(rungs))
	for i, s := range rungs {
		if s == nil {
			return nil, fmt.Errorf("%w: resilient rung %d is nil", ErrInvalidOptions, i)
		}
		names[i] = s.Name()
		rung, ok := s.(intoSolver)
		if !ok {
			rung = newForeignSolver(s)
		}
		ladder[i] = rung
	}
	sup, err := resilience.New(p.policy(), len(rungs))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	r := &Resilient{
		rungs: ladder,
		sup:   sup,
		name:  "resilient(" + strings.Join(names, "->") + ")",
	}
	r.attemptFn = r.attempt
	return r, nil
}

// Name identifies the solver and its ladder in comparison tables.
func (r *Resilient) Name() string { return r.name }

// LastRung returns the ladder index that served the most recent successful
// solve (0 = the preferred backend); it is the observable trace of a
// degradation.
func (r *Resilient) LastRung() int { return int(r.lastRung.Load()) }

// Counters returns this Resilient's own recovery-event counts (retries,
// breaker trips, ladder degradations), monotonic across its lifetime. A
// caller that owns the Resilient exclusively for the duration of one solve
// can diff two snapshots for exact per-solve attribution.
func (r *Resilient) Counters() (retries, breakerTrips, degradations int64) {
	c := r.sup.Counters()
	return c.Retries, c.BreakerTrips, c.Degradations
}

// RungNames lists the ladder's solver names in order.
func (r *Resilient) RungNames() []string {
	names := make([]string, len(r.rungs))
	for i, s := range r.rungs {
		names[i] = s.Name()
	}
	return names
}

// attempt is one solve of the in-flight operation on one rung.
func (r *Resilient) attempt(ctx context.Context, rung int) error {
	return r.rungs[rung].solveInto(ctx, r.sys, r.phi, r.acc)
}

// solveInto drives the supervisor over the ladder and clears the in-flight
// references afterwards so the Resilient never retains caller slices
// between solves.
func (r *Resilient) solveInto(ctx context.Context, s *System, phi []float64, acc []Vec3) error {
	r.sys, r.phi, r.acc = s, phi, acc
	rung, err := r.sup.Do(ctx, r.attemptFn)
	if err == nil {
		r.lastRung.Store(int32(rung))
	}
	r.sys, r.phi, r.acc = nil, nil, nil
	return err
}

// Potentials computes the potential at every particle, healing transient
// failures through the ladder.
func (r *Resilient) Potentials(s *System) ([]float64, error) {
	return potentials(nil, r, s)
}

// PotentialsCtx is Potentials with cancellation: the context bounds every
// attempt and every backoff sleep of the supervisor.
func (r *Resilient) PotentialsCtx(ctx context.Context, s *System) ([]float64, error) {
	return potentials(ctx, r, s)
}

// PotentialsInto computes the potentials into the caller-owned slice phi
// (length s.Len()). On an Anderson rung the happy path allocates nothing;
// degraded rungs may allocate.
func (r *Resilient) PotentialsInto(phi []float64, s *System) error {
	return r.PotentialsIntoCtx(nil, phi, s)
}

// PotentialsIntoCtx is PotentialsInto with cancellation.
func (r *Resilient) PotentialsIntoCtx(ctx context.Context, phi []float64, s *System) error {
	if len(phi) != s.Len() {
		return fmt.Errorf("%w: %d-length output slice for %d particles", ErrInvalidSystem, len(phi), s.Len())
	}
	return r.solveInto(ctx, s, phi, nil)
}

// Accelerations computes potentials and fields, skipping ladder rungs that
// cannot produce accelerations (e.g. BarnesHut).
func (r *Resilient) Accelerations(s *System) ([]float64, []Vec3, error) {
	return accelerations(nil, r, s)
}

// AccelerationsCtx is Accelerations with cancellation.
func (r *Resilient) AccelerationsCtx(ctx context.Context, s *System) ([]float64, []Vec3, error) {
	return accelerations(ctx, r, s)
}

// AccelerationsInto computes potentials and fields into caller-owned
// slices (each length s.Len()); this is the time-stepping path, so a
// Simulation running on a Resilient inherits the whole self-healing layer.
func (r *Resilient) AccelerationsInto(phi []float64, acc []Vec3, s *System) error {
	return r.AccelerationsIntoCtx(nil, phi, acc, s)
}

// AccelerationsIntoCtx is AccelerationsInto with cancellation.
func (r *Resilient) AccelerationsIntoCtx(ctx context.Context, phi []float64, acc []Vec3, s *System) error {
	if acc == nil || len(phi) != s.Len() || len(acc) != s.Len() {
		return fmt.Errorf("%w: output slices (%d, %d) for %d particles", ErrInvalidSystem, len(phi), len(acc), s.Len())
	}
	return r.solveInto(ctx, s, phi, acc)
}

var (
	_ Accelerator     = (*Resilient)(nil)
	_ AcceleratorInto = (*Resilient)(nil)
)
