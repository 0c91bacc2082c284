package nbody

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"nbody/internal/metrics"
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

// resilientOp selects which entry point an attempt executes; the in-flight
// arguments live on the Resilient so the prebuilt attempt closure carries
// no per-call state (the zero-allocation happy path).
type resilientOp int

const (
	opPotentials resilientOp = iota
	opPotentialsInto
	opAccelerations
	opAccelerationsInto
)

// Capability interfaces of the concrete solvers, asserted per rung so each
// attempt uses the richest entry point the rung offers (context-aware and
// allocation-free variants first).
type (
	potentialsCtxSolver interface {
		PotentialsCtx(context.Context, *System) ([]float64, error)
	}
	potentialsIntoSolver interface {
		PotentialsInto([]float64, *System) error
	}
	potentialsIntoCtxSolver interface {
		PotentialsIntoCtx(context.Context, []float64, *System) error
	}
	accelerationsCtxSolver interface {
		AccelerationsCtx(context.Context, *System) ([]float64, []Vec3, error)
	}
	accelerationsIntoCtxSolver interface {
		AccelerationsIntoCtx(context.Context, []float64, []Vec3, *System) error
	}
)

// Resilient wraps a degradation ladder of solvers behind the retry
// supervisor, turning the *InternalError safe-to-retry contract into
// self-healing solves: a failed attempt is retried with backoff, a rung
// that keeps failing (or whose circuit breaker is open) is abandoned for
// the next rung, and only a ladder-wide failure reaches the caller.
//
// Rung 0 is the preferred backend; later rungs are fallbacks in order,
// e.g. DataParallel → Anderson → BarnesHut → Direct. Rungs may have
// different capabilities: every rung can serve Potentials, but a rung
// without acceleration support (BarnesHut) is skipped by the acceleration
// entry points. Validation errors (ErrInvalidSystem, ErrOutOfDomain) abort
// the whole ladder — no fallback can repair a malformed input.
//
// Like the solvers it wraps, a Resilient runs one solve at a time. The
// happy path — first rung, first attempt succeeds — adds no retries, no
// metrics traffic, and (on the Into entry points over an Into-capable
// rung) no allocations.
type Resilient struct {
	rungs []Solver
	sup   *resilience.Supervisor
	name  string

	lastRung atomic.Int32

	// In-flight operation state; see resilientOp.
	op     resilientOp
	sys    *System
	phi    []float64
	acc    []Vec3
	outPhi []float64
	outAcc []Vec3

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
	for i, s := range rungs {
		if s == nil {
			return nil, fmt.Errorf("%w: resilient rung %d is nil", ErrInvalidOptions, i)
		}
		names[i] = s.Name()
	}
	sup, err := resilience.New(p.policy(), len(rungs))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	r := &Resilient{
		rungs: append([]Solver{}, rungs...),
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

// recFor exposes rung's phase recorder for panic attribution when the rung
// has one (nil otherwise).
func (r *Resilient) recFor(rung int) *metrics.Rec {
	if pr, ok := r.rungs[rung].(phaseRecorder); ok {
		return pr.activeRec()
	}
	return nil
}

// attempt executes the in-flight operation on one rung, preferring the
// rung's context-aware and allocation-free entry points. A panic escaping
// a rung without its own containment (BarnesHut, Direct) is recovered here
// into an *InternalError, so every rung failure enters the classifier as a
// typed error.
func (r *Resilient) attempt(ctx context.Context, rung int) (err error) {
	defer recoverInternal(r.recFor(rung), &err)
	s := r.rungs[rung]
	switch r.op {
	case opPotentials:
		if sv, ok := s.(potentialsCtxSolver); ok {
			r.outPhi, err = sv.PotentialsCtx(ctx, r.sys)
			return err
		}
		if err = ctx.Err(); err != nil {
			return err
		}
		r.outPhi, err = s.Potentials(r.sys)
		return err

	case opPotentialsInto:
		if sv, ok := s.(potentialsIntoCtxSolver); ok {
			return sv.PotentialsIntoCtx(ctx, r.phi, r.sys)
		}
		if sv, ok := s.(potentialsIntoSolver); ok {
			if err = ctx.Err(); err != nil {
				return err
			}
			return sv.PotentialsInto(r.phi, r.sys)
		}
		// Allocating fallback: a degraded rung trades the zero-alloc
		// contract for availability.
		var tmp []float64
		if sv, ok := s.(potentialsCtxSolver); ok {
			tmp, err = sv.PotentialsCtx(ctx, r.sys)
		} else {
			if err = ctx.Err(); err != nil {
				return err
			}
			tmp, err = s.Potentials(r.sys)
		}
		if err == nil {
			copy(r.phi, tmp)
		}
		return err

	case opAccelerations:
		if sv, ok := s.(accelerationsCtxSolver); ok {
			r.outPhi, r.outAcc, err = sv.AccelerationsCtx(ctx, r.sys)
			return err
		}
		if sv, ok := s.(Accelerator); ok {
			if err = ctx.Err(); err != nil {
				return err
			}
			r.outPhi, r.outAcc, err = sv.Accelerations(r.sys)
			return err
		}
		return fmt.Errorf("%w: %s cannot compute accelerations", errRungUnsupported, s.Name())

	case opAccelerationsInto:
		if sv, ok := s.(accelerationsIntoCtxSolver); ok {
			return sv.AccelerationsIntoCtx(ctx, r.phi, r.acc, r.sys)
		}
		if sv, ok := s.(AcceleratorInto); ok {
			if err = ctx.Err(); err != nil {
				return err
			}
			return sv.AccelerationsInto(r.phi, r.acc, r.sys)
		}
		if sv, ok := s.(Accelerator); ok {
			if err = ctx.Err(); err != nil {
				return err
			}
			var tphi []float64
			var tacc []Vec3
			tphi, tacc, err = sv.Accelerations(r.sys)
			if err == nil {
				copy(r.phi, tphi)
				copy(r.acc, tacc)
			}
			return err
		}
		return fmt.Errorf("%w: %s cannot compute accelerations", errRungUnsupported, s.Name())
	}
	return fmt.Errorf("nbody: unknown resilient op %d", r.op)
}

// do drives the supervisor for the prepared operation and clears the
// in-flight references afterwards so the Resilient never retains caller
// slices between solves.
func (r *Resilient) do(ctx context.Context) error {
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
	return r.PotentialsCtx(context.Background(), s)
}

// PotentialsCtx is Potentials with cancellation: the context bounds every
// attempt and every backoff sleep of the supervisor.
func (r *Resilient) PotentialsCtx(ctx context.Context, s *System) ([]float64, error) {
	r.op, r.sys = opPotentials, s
	err := r.do(ctx)
	out := r.outPhi
	r.outPhi, r.outAcc = nil, nil
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PotentialsInto computes the potentials into the caller-owned slice phi
// (length s.Len()). On a rung supporting in-place solves (Anderson) the
// happy path allocates nothing; degraded rungs may allocate.
func (r *Resilient) PotentialsInto(phi []float64, s *System) error {
	return r.PotentialsIntoCtx(context.Background(), phi, s)
}

// PotentialsIntoCtx is PotentialsInto with cancellation.
func (r *Resilient) PotentialsIntoCtx(ctx context.Context, phi []float64, s *System) error {
	if len(phi) != s.Len() {
		return fmt.Errorf("%w: %d-length output slice for %d particles", ErrInvalidSystem, len(phi), s.Len())
	}
	r.op, r.sys, r.phi = opPotentialsInto, s, phi
	return r.do(ctx)
}

// Accelerations computes potentials and fields, skipping ladder rungs that
// cannot produce accelerations (e.g. BarnesHut).
func (r *Resilient) Accelerations(s *System) ([]float64, []Vec3, error) {
	return r.AccelerationsCtx(context.Background(), s)
}

// AccelerationsCtx is Accelerations with cancellation.
func (r *Resilient) AccelerationsCtx(ctx context.Context, s *System) ([]float64, []Vec3, error) {
	r.op, r.sys = opAccelerations, s
	err := r.do(ctx)
	phi, acc := r.outPhi, r.outAcc
	r.outPhi, r.outAcc = nil, nil
	if err != nil {
		return nil, nil, err
	}
	return phi, acc, nil
}

// AccelerationsInto computes potentials and fields into caller-owned
// slices (each length s.Len()); this is the time-stepping path, so a
// Simulation running on a Resilient inherits the whole self-healing layer.
func (r *Resilient) AccelerationsInto(phi []float64, acc []Vec3, s *System) error {
	return r.AccelerationsIntoCtx(context.Background(), phi, acc, s)
}

// AccelerationsIntoCtx is AccelerationsInto with cancellation.
func (r *Resilient) AccelerationsIntoCtx(ctx context.Context, phi []float64, acc []Vec3, s *System) error {
	if len(phi) != s.Len() || len(acc) != s.Len() {
		return fmt.Errorf("%w: output slices (%d, %d) for %d particles", ErrInvalidSystem, len(phi), len(acc), s.Len())
	}
	r.op, r.sys, r.phi, r.acc = opAccelerationsInto, s, phi, acc
	return r.do(ctx)
}

var (
	_ Solver          = (*Resilient)(nil)
	_ Accelerator     = (*Resilient)(nil)
	_ AcceleratorInto = (*Resilient)(nil)
)
