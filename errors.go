package nbody

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nbody/internal/resilience"
)

// Sentinel errors classifying rejected inputs. Entry points wrap them with
// the offending particle index, so callers can both program against the
// class (errors.Is) and log the specifics.
var (
	// ErrInvalidSystem marks systems that are malformed independent of any
	// solver: mismatched slice lengths, or NaN/Inf positions or charges.
	ErrInvalidSystem = errors.New("nbody: invalid system")
	// ErrOutOfDomain marks systems with finite particles lying outside the
	// solver's fixed domain box (the hierarchy cannot place them).
	ErrOutOfDomain = errors.New("nbody: particle outside solver domain")
	// ErrInvalidOptions marks solver options rejected at construction:
	// negative or otherwise nonsensical Degree, M, Depth, Separation, or
	// RadiusRatio values, caught by NewAnderson / NewDataParallel /
	// NewAnderson2D before any plan building starts.
	ErrInvalidOptions = errors.New("nbody: invalid solver options")
	// ErrCorruptCheckpoint marks a simulation snapshot ResumeSimulation
	// cannot trust: bad magic, unsupported version, truncated payload,
	// inconsistent lengths, or a CRC32C mismatch. Corruption is always
	// reported through this sentinel — never a panic, never a silently
	// wrong simulation.
	ErrCorruptCheckpoint = errors.New("nbody: corrupt checkpoint")
)

// InternalError is a panic from inside a solve, recovered at the public API
// boundary and returned as an error instead of crashing the process. Phase
// names the pipeline phase that was active when the panic fired (one of the
// internal/metrics phase names such as "sort", "t2", "near-field", or
// "unknown" when no phase span was open); Value is the recovered panic value
// and Stack the goroutine stack captured at recovery.
//
// Safe-to-retry contract: before an InternalError is returned, every worker
// participating in the solve has stopped touching the solver's buffers and
// the caller's output slices (the scheduler drains all in-flight work before
// re-raising a panic on the submitter). The solver's internal state may hold
// partial results, but a subsequent solve on the same solver overwrites all
// of it and produces correct results — retrying is always safe.
type InternalError struct {
	Phase string // active pipeline phase, or "unknown"
	Value any    // the recovered panic value
	Stack []byte // stack captured at the recovery point
}

// Error implements the error interface.
func (e *InternalError) Error() string {
	return fmt.Sprintf("nbody: internal panic during %s phase: %v", e.Phase, e.Value)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.Is/As reach through (e.g. a fault-injected sentinel).
func (e *InternalError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// classifyError is the default error taxonomy of the Resilient supervisor,
// mapping each error class of this package onto the supervisor's retry
// semantics:
//
//   - *InternalError is Retryable: its documented safe-to-retry contract
//     guarantees the solver is reusable after the failure.
//   - context.Canceled / context.DeadlineExceeded are Terminal: the caller
//     asked to stop (the supervisor itself reclassifies a per-attempt
//     deadline as Retryable when the caller's context is still live).
//   - ErrInvalidSystem / ErrOutOfDomain / ErrInvalidOptions /
//     ErrCorruptCheckpoint are Permanent: no retry or fallback solver can
//     repair a malformed input.
//   - errRungUnsupported is Skip: the rung cannot perform the operation at
//     all, so the ladder advances without burning attempts.
//   - Anything unrecognized is Permanent: an error outside the documented
//     taxonomy carries no safe-to-retry contract.
func classifyError(err error) resilience.Class {
	var ie *InternalError
	switch {
	case errors.As(err, &ie):
		return resilience.Retryable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return resilience.Terminal
	case errors.Is(err, errRungUnsupported):
		return resilience.Skip
	default:
		return resilience.Permanent
	}
}

// finite reports whether v is neither NaN nor Inf. The self-comparison plus
// range test compiles to two branches and no calls, keeping Validate
// allocation-free and cheap on the happy path.
func finite(v float64) bool {
	return v == v && v <= math.MaxFloat64 && v >= -math.MaxFloat64
}

// Validate checks the system against a solver domain: positions and charges
// must have equal length, every coordinate and charge must be finite, and
// every particle must lie inside box (half-open, like the hierarchy's leaf
// assignment). It returns nil for a valid system (including the empty one),
// an error wrapping ErrInvalidSystem for malformed data, or one wrapping
// ErrOutOfDomain for finite particles the box does not contain. The first
// offending particle index is reported. The happy path performs no
// allocations.
func (s *System) Validate(box Box) error {
	if len(s.Positions) != len(s.Charges) {
		return fmt.Errorf("%w: %d positions but %d charges",
			ErrInvalidSystem, len(s.Positions), len(s.Charges))
	}
	for i, p := range s.Positions {
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			return fmt.Errorf("%w: particle %d has non-finite position %v",
				ErrInvalidSystem, i, p)
		}
		if !box.Contains(p) {
			return fmt.Errorf("%w: particle %d at %v outside %v",
				ErrOutOfDomain, i, p, box)
		}
	}
	for i, q := range s.Charges {
		if !finite(q) {
			return fmt.Errorf("%w: particle %d has non-finite charge %g",
				ErrInvalidSystem, i, q)
		}
	}
	return nil
}

// validate2D is the Vec2 counterpart used by the 2-D entry points.
func validate2D(pos []Vec2, q []float64, box Box2D) error {
	if len(pos) != len(q) {
		return fmt.Errorf("%w: %d positions but %d charges",
			ErrInvalidSystem, len(pos), len(q))
	}
	for i, p := range pos {
		if !finite(p.X) || !finite(p.Y) {
			return fmt.Errorf("%w: particle %d has non-finite position %v",
				ErrInvalidSystem, i, p)
		}
		if !box.Contains(p) {
			return fmt.Errorf("%w: particle %d at %v outside box",
				ErrOutOfDomain, i, p)
		}
	}
	for i, v := range q {
		if !finite(v) {
			return fmt.Errorf("%w: particle %d has non-finite charge %g",
				ErrInvalidSystem, i, v)
		}
	}
	return nil
}
