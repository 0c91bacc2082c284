// Package pipeline is the shared phase-runner of the solve pipelines.
//
// Every solver in this repository (core, core2, dpfmm — potentials and
// forces) executes the same kind of program: an ordered sequence of named
// phases, each of which must be timed under a metrics span, exposed as a
// named fault-injection site, and separated from its neighbours by a
// cooperative cancellation check. Before this package each pipeline
// hand-rolled that scaffolding around every phase body; the runner owns it
// in one place, and a pipeline is reduced to a declared []Phase slice.
//
// For each phase, Run provides in order:
//
//   - a between-phase cancellation check (ctx.Err before the phase starts);
//   - the metrics span (rec.Begin/End), whose open-span marker is what
//     attributes a contained panic to its phase;
//   - the named fault-injection site, fired after a successful phase body —
//     with the phase's output slice when one is declared, so NaN injection
//     can poison real data;
//   - panic containment: a panic escaping any phase body is converted into
//     a *PanicError carrying the pipeline name, the active phase, the panic
//     value, and the stack. The public API layer converts that into the
//     exported InternalError type.
//
// Composite phases (dpfmm's ghost-strategy T2 conversions, which interleave
// ghost-motion and conversion spans of their own) opt out of the runner's
// span and instead record their inner steps through Step, which provides
// the same span+site pairing for nested work.
package pipeline

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"nbody/internal/faults"
	"nbody/internal/metrics"
	"nbody/internal/sched"
)

// A Phase is one declared step of a solver's pipeline.
type Phase struct {
	// Name is the metrics phase the runner's span charges time to.
	Name metrics.Phase

	// Site is the fault-injection site fired after a successful Run. Every
	// phase must declare one (the meta-test enforces it); sites are named
	// "<pipeline>/<phase>" and must be unique across the binary.
	Site string

	// Slice, when non-nil, resolves the phase's output buffer at fire time
	// so NaN injection can poison it. Resolved lazily because solvers may
	// regrow buffers inside earlier phases.
	Slice func() []float64

	// Run is the phase body. It sees the solve's context for in-phase
	// cancellation; a non-nil error aborts the pipeline.
	Run func(ctx context.Context) error

	// Composite marks a phase that records its own nested spans through
	// Step instead of running under a single runner-owned span. Sub
	// declares the nested steps for the meta-test.
	Composite bool
	Sub       []SubStep
}

// A SubStep declares one nested span+site pair of a composite phase.
type SubStep struct {
	Name metrics.Phase
	Site string
}

// PanicError is a panic contained by the runner, attributed to the phase
// whose span was open when it fired. The public API converts it into the
// exported InternalError.
type PanicError struct {
	Pipeline string // pipeline name passed to Run
	Phase    string // active phase name, or "unknown"
	Value    any    // the recovered panic value
	Stack    []byte // stack captured at the recovery point
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline %s: panic during %s phase: %v", e.Pipeline, e.Phase, e.Value)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.Is/As reach through (e.g. a fault-injected sentinel).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Run executes a declared pipeline: for each phase a cancellation check,
// then span + body + fault site as documented on Phase. It returns the
// first phase error, ctx.Err() on cancellation, or a *PanicError if a
// phase body panicked. Steady-state calls perform no allocations.
//
// Run holds the worker pool (sched.Hold) from its first phase to its
// return, so the solve's parallel regions reach workers that are still
// polling instead of waking parked ones; the hold ends before Run returns,
// whatever the outcome.
func Run(ctx context.Context, rec *metrics.Rec, name string, phases []Phase) (err error) {
	sched.Hold()
	defer sched.Release()
	defer containPanic(rec, name, &err)
	for i := range phases {
		p := &phases[i]
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if p.Composite {
			observe(Event{Pipeline: name, Phase: p.Name, Composite: true})
			if perr := p.Run(ctx); perr != nil {
				return perr
			}
			continue
		}
		sp := rec.Begin(p.Name)
		perr := p.Run(ctx)
		if perr == nil {
			if p.Slice != nil {
				faults.FireSlice(p.Site, p.Slice())
			} else {
				faults.Fire(p.Site)
			}
		}
		sp.End()
		observe(Event{Pipeline: name, Phase: p.Name, Site: p.Site})
		if perr != nil {
			return perr
		}
	}
	return nil
}

// containPanic is Run's deferred recovery: it converts a panic escaping a
// phase body into a *PanicError, reading (and clearing) the recorder's
// open-span marker for phase attribution.
func containPanic(rec *metrics.Rec, name string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	phase := "unknown"
	if rec != nil {
		if p, ok := rec.ActivePhase(); ok {
			phase = p.String()
		}
		rec.ClearActive()
	}
	*errp = &PanicError{Pipeline: name, Phase: phase, Value: r, Stack: debug.Stack()}
}

// Step records one nested span+site pair inside a composite phase: span,
// body, fault site, in the same order the runner uses for whole phases.
// Panics propagate to the enclosing Run, which attributes them to this
// step's phase through the open-span marker.
func Step(rec *metrics.Rec, p metrics.Phase, site string, fn func()) {
	sp := rec.Begin(p)
	fn()
	faults.Fire(site)
	sp.End()
	observe(Event{Phase: p, Site: site, Nested: true})
}

// Setup runs a constructor-time body under a PhaseSetup span, so solver
// construction is charged to the setup phase without hand-rolled spans.
func Setup(rec *metrics.Rec, fn func()) {
	sp := rec.Begin(metrics.PhaseSetup)
	fn()
	sp.End()
}

// Fire re-exports faults.Fire for in-worker body sites (per-box injection
// points inside parallel sweeps, which have no span of their own). Routing
// them through the pipeline package keeps the static check meaningful:
// every injection point in the tree is declared pipeline plumbing.
func Fire(site string) { faults.Fire(site) }

// Event is one runner action reported to the test observer: a phase
// executed by Run (Nested false) or a nested Step of a composite phase
// (Nested true). Composite events carry no Site; their steps do.
type Event struct {
	Pipeline  string
	Phase     metrics.Phase
	Site      string
	Nested    bool
	Composite bool
}

// observer is the test hook: a single atomically-swapped callback. The nil
// fast path costs one atomic load per phase, keeping production solves at
// zero overhead and zero allocations.
var observer atomic.Pointer[func(Event)]

// SetObserver installs fn as the event observer (nil removes it). Tests
// only; the observer runs synchronously on the solve goroutine.
func SetObserver(fn func(Event)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

func observe(ev Event) {
	if fn := observer.Load(); fn != nil {
		(*fn)(ev)
	}
}
