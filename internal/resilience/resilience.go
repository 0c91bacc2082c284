// Package resilience is the retry supervisor of the self-healing layer: it
// turns the public API's safe-to-retry contract (an *InternalError leaves
// the solver reusable — see the root package's errors.go) into an actual
// recovery mechanism.
//
// A Supervisor drives one logical operation across a degradation ladder of
// rungs (rung 0 is the preferred backend, higher rungs are progressively
// cheaper fallbacks — e.g. DataParallel → Anderson → BarnesHut → Direct).
// Each rung gets up to Policy.MaxAttempts attempts with exponential backoff
// and jitter between them; when a rung exhausts its attempts, or its
// circuit breaker is open (too many consecutive failures recently), the
// supervisor steps down to the next rung. The caller's error classifier
// decides what is worth retrying: Retryable errors burn an attempt,
// Permanent errors abort the whole ladder (no rung can fix a malformed
// input), Terminal errors (caller cancellation) abort immediately, and
// Skip advances the ladder without burning attempts (the rung cannot
// perform the requested operation at all).
//
// Every retry, breaker trip, and rung change is counted on the Supervisor
// that performed it (Counters), so whoever owns the supervisor can observe
// the layer working (and observe it idle: a healthy run records nothing).
// The happy path — first rung, first attempt succeeds — performs no
// allocations and touches no counter.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Class is an error classification: what the supervisor should do with a
// failed attempt.
type Class int

const (
	// Retryable marks transient failures covered by a safe-to-retry
	// contract: the attempt is retried on the same rung (after backoff)
	// until the rung's attempts are exhausted.
	Retryable Class = iota
	// Permanent marks input or configuration errors no rung can fix
	// (invalid system, out-of-domain particles): the supervisor returns
	// the error immediately without consulting lower rungs.
	Permanent
	// Terminal marks caller-initiated stops (context cancellation or the
	// caller's deadline): the supervisor aborts immediately. A deadline
	// that expired on a per-attempt budget while the caller's context is
	// still live is reclassified as Retryable — the attempt was too slow,
	// not the run.
	Terminal
	// Skip marks a rung that cannot perform the requested operation at
	// all (e.g. a potentials-only solver asked for accelerations): the
	// supervisor advances to the next rung without retrying or backoff.
	Skip
)

// String implements fmt.Stringer for log and test output.
func (c Class) String() string {
	switch c {
	case Retryable:
		return "retryable"
	case Permanent:
		return "permanent"
	case Terminal:
		return "terminal"
	case Skip:
		return "skip"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classifier maps an attempt error to its Class. It is never called with a
// nil error.
type Classifier func(error) Class

// Policy configures a Supervisor. The zero value of every field selects a
// sensible default (see withDefaults); Classify is the one required field.
type Policy struct {
	// MaxAttempts is the attempt budget per rung (default 3). The first
	// attempt is not a retry: a rung records MaxAttempts-1 retries at most.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry (default 5ms); each
	// further retry multiplies it by Multiplier (default 2) up to
	// MaxBackoff (default 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Multiplier  float64
	// Jitter spreads each backoff uniformly over ±Jitter of its nominal
	// value (default 0.2, clamped to [0, 1]) so retry storms decorrelate.
	Jitter float64
	// AttemptTimeout bounds each attempt. Zero derives a budget from the
	// caller's deadline when one exists: the remaining time divided evenly
	// among the rung's remaining attempts, so one hung attempt cannot eat
	// the retries' whole budget. With no deadline and no AttemptTimeout,
	// attempts are unbounded.
	AttemptTimeout time.Duration
	// BreakerThreshold is the number of consecutive failures (across Do
	// calls) that opens a rung's circuit breaker; 0 disables breakers.
	// While open, the rung is skipped outright. Any success closes it.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects the rung before
	// allowing a fresh probe attempt (default 1s).
	BreakerCooldown time.Duration
	// Classify decides what a failed attempt means. Required.
	Classify Classifier
	// Seed seeds the jitter generator (0 picks a fixed default); tests pin
	// it for reproducible backoff schedules.
	Seed int64
}

// withDefaults fills unset fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Supervisor executes attempts under a Policy across a fixed-size ladder.
// One Do at a time: the supervisor serializes itself with an internal
// mutex only around jitter state (each rung's Breaker has its own), but
// the rungs it drives are single-solve solvers, so callers run one
// operation at a time just as they would on the bare solver.
type Supervisor struct {
	p Policy

	mu       sync.Mutex // guards rng
	rng      *rand.Rand
	breakers []*Breaker

	// This supervisor's recovery events. A caller that owns it exclusively
	// (e.g. one server request holding one cached plan) diffs two Counters
	// snapshots to attribute events to itself exactly.
	retries      atomic.Int64
	breakerTrips atomic.Int64
	degradations atomic.Int64
}

// Counters is a snapshot of one supervisor's own recovery events.
type Counters struct {
	Retries      int64
	BreakerTrips int64
	Degradations int64
}

// Counters reads this supervisor's event counts (monotonic; diff two
// snapshots for a per-operation delta).
func (s *Supervisor) Counters() Counters {
	return Counters{
		Retries:      s.retries.Load(),
		BreakerTrips: s.breakerTrips.Load(),
		Degradations: s.degradations.Load(),
	}
}

// New builds a Supervisor over a ladder of rungs. Classify is required and
// rungs must be positive.
func New(p Policy, rungs int) (*Supervisor, error) {
	if rungs <= 0 {
		return nil, fmt.Errorf("resilience: need at least one rung, got %d", rungs)
	}
	if p.Classify == nil {
		return nil, errors.New("resilience: Policy.Classify is required")
	}
	p = p.withDefaults()
	s := &Supervisor{
		p:        p,
		rng:      rand.New(rand.NewSource(p.Seed)),
		breakers: make([]*Breaker, rungs),
	}
	for i := range s.breakers {
		s.breakers[i] = NewBreaker(p.BreakerThreshold, p.BreakerCooldown)
	}
	return s, nil
}

// BreakerOpen reports whether rung's circuit breaker currently rejects
// attempts (for tests and status displays).
func (s *Supervisor) BreakerOpen(rung int) bool {
	return s.breakers[rung].Open()
}

// Do runs attempt down the ladder until one rung succeeds: it returns the
// rung that produced the result, or the last error once every rung is
// exhausted, skipped, or the classifier aborts the run. attempt receives a
// context bounded by the per-attempt budget (when one applies) and the
// rung index; it must be safe to call again after returning an error —
// that is exactly the safe-to-retry contract the classifier's Retryable
// class asserts.
func (s *Supervisor) Do(ctx context.Context, attempt func(ctx context.Context, rung int) error) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	lastRung := 0
	for rung := 0; rung < len(s.breakers); rung++ {
		if rung > 0 {
			s.degradations.Add(1)
		}
		if s.breakerRejects(rung) {
			if lastErr == nil {
				lastErr = fmt.Errorf("resilience: rung %d circuit breaker open", rung)
			}
			continue
		}
		err := s.runRung(ctx, rung, attempt)
		if err == nil {
			s.recordSuccess(rung)
			return rung, nil
		}
		lastErr, lastRung = err, rung
		switch s.classify(ctx, err) {
		case Terminal, Permanent:
			return rung, err
		}
		// Retryable (attempts exhausted or breaker tripped mid-rung) and
		// Skip both fall through to the next rung.
	}
	return lastRung, lastErr
}

// runRung burns the attempt budget of one rung: attempt, classify,
// backoff, retry. It returns nil on success, the rung's last error when
// its attempts are exhausted, a Skip/Permanent/Terminal error immediately,
// or ctx.Err() if the caller cancels during a backoff sleep.
func (s *Supervisor) runRung(ctx context.Context, rung int, attempt func(ctx context.Context, rung int) error) error {
	for a := 1; ; a++ {
		actx, cancel := s.attemptCtx(ctx, s.p.MaxAttempts-a+1)
		err := attempt(actx, rung)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		switch s.classify(ctx, err) {
		case Permanent, Terminal, Skip:
			return err
		}
		if s.recordFailure(rung) {
			// Breaker tripped mid-rung: stop burning attempts here.
			return err
		}
		if a >= s.p.MaxAttempts {
			return err
		}
		s.retries.Add(1)
		if serr := s.sleep(ctx, a); serr != nil {
			return serr
		}
	}
}

// classify applies the policy classifier with the per-attempt-deadline
// correction: an error that looks Terminal (deadline exceeded) while the
// caller's own context is still live came from the attempt budget, not the
// caller, and is therefore retryable.
func (s *Supervisor) classify(ctx context.Context, err error) Class {
	c := s.p.Classify(err)
	if c == Terminal && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		return Retryable
	}
	return c
}

// attemptCtx bounds one attempt: the configured AttemptTimeout when set,
// otherwise an even share of the caller's remaining deadline budget across
// the rung's remaining attempts. With neither, the caller's context is
// used as-is and no allocation happens (the happy path).
func (s *Supervisor) attemptCtx(ctx context.Context, attemptsLeft int) (context.Context, context.CancelFunc) {
	if s.p.AttemptTimeout > 0 {
		return context.WithTimeout(ctx, s.p.AttemptTimeout)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, nil
	}
	remaining := time.Until(deadline)
	if remaining <= 0 || attemptsLeft <= 1 {
		return ctx, nil // already expired, or last attempt: let the caller's deadline rule
	}
	return context.WithTimeout(ctx, remaining/time.Duration(attemptsLeft))
}

// sleep blocks for the attempt'th backoff, returning early with ctx.Err()
// the moment the caller cancels — the promptness the cancellation
// acceptance test pins down.
func (s *Supervisor) sleep(ctx context.Context, attempt int) error {
	d := s.backoff(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff returns the jittered exponential backoff before retry attempt+1.
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := float64(s.p.BaseBackoff)
	for i := 1; i < attempt; i++ {
		d *= s.p.Multiplier
		if d >= float64(s.p.MaxBackoff) {
			d = float64(s.p.MaxBackoff)
			break
		}
	}
	if d > float64(s.p.MaxBackoff) {
		d = float64(s.p.MaxBackoff)
	}
	if s.p.Jitter > 0 {
		s.mu.Lock()
		u := s.rng.Float64()
		s.mu.Unlock()
		d *= 1 + s.p.Jitter*(2*u-1)
	}
	return time.Duration(d)
}

// breakerRejects reports whether rung's breaker is open right now.
func (s *Supervisor) breakerRejects(rung int) bool {
	return s.breakers[rung].Open()
}

// recordFailure counts one consecutive failure on rung and reports whether
// it tripped the breaker (opening it for the cooldown).
func (s *Supervisor) recordFailure(rung int) bool {
	if !s.breakers[rung].Failure() {
		return false
	}
	s.breakerTrips.Add(1)
	return true
}

// recordSuccess closes rung's breaker. The happy path (breakers disabled)
// takes no lock.
func (s *Supervisor) recordSuccess(rung int) {
	s.breakers[rung].Success()
}
