package nbody

import (
	"context"
	"errors"
	"runtime/debug"

	"nbody/internal/metrics"
	"nbody/internal/pipeline"
)

// guard runs one solve: prep (validation plus any lazy solver construction;
// nil for none), then fn under panic containment. A panic escaping fn — or a
// pipeline.PanicError the phase runner already contained — is returned as an
// *InternalError attributed to the active phase of the recorder rec returns
// (a nil rec, a nil recorder or no open span reads "unknown"). Every solver
// of this package, and Simulation around a solver from outside it, solves
// through here; the validate → recover → solve sequence lives only here.
func guard(rec func() *metrics.Rec, prep, fn func() error) (err error) {
	if prep != nil {
		if err := prep(); err != nil {
			return err
		}
	}
	defer func() {
		if v := recover(); v != nil {
			err = recovered(rec, v)
		}
	}()
	return internalize(fn())
}

// recovered is the *InternalError of a panic value v caught by guard. It
// reads, and clears, the open-span marker of rec's recorder.
func recovered(rec func() *metrics.Rec, v any) *InternalError {
	phase := "unknown"
	if rec != nil {
		if r := rec(); r != nil {
			if p, ok := r.ActivePhase(); ok {
				phase = p.String()
			}
			r.ClearActive()
		}
	}
	return &InternalError{Phase: phase, Value: v, Stack: debug.Stack()}
}

// internalize converts a pipeline.PanicError — a panic the phase runner
// contained inside a solve — into the exported *InternalError type. Other
// errors (including nil) pass through unchanged.
func internalize(err error) error {
	if err == nil {
		return nil
	}
	var pe *pipeline.PanicError
	if errors.As(err, &pe) {
		return &InternalError{Phase: pe.Phase, Value: pe.Value, Stack: pe.Stack}
	}
	return err
}

// ctxErr is ctx.Err() for the solvers that cannot observe a context inside
// a solve; a nil ctx means no cancellation.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
