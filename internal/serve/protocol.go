// Package serve is the multi-tenant solver service: request decoding and
// validation on top of System.Validate and the package's typed errors,
// per-tenant FIFO queues with admission control, a solver-plan cache keyed
// by problem shape so warm requests skip NewSolver entirely, the Resilient
// degradation ladder as the per-request execution engine (with the caller's
// deadline propagated through the existing ctx cancellation), and a
// JSON metrics endpoint plus structured request logs.
//
// The wire protocol is JSON over HTTP:
//
//	POST /v1/solve     one potential/acceleration solve, JSON in, JSON out
//	POST /v1/simulate  a leapfrog integration, chunked NDJSON frame stream
//	GET  /v1/metrics   admission/plan-cache/latency/recovery counters
//	GET  /v1/healthz   liveness
//
// Positions live in the canonical unit-cube domain [0,1)^3 (the domain of
// every distribution the repo generates); the fixed domain is what makes a
// solver plan reusable across requests of the same shape.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"nbody"
	"nbody/internal/cli"
)

// Typed admission/decoding errors, mapped onto HTTP status codes by the
// handlers (solver-side classes — ErrInvalidSystem, ErrOutOfDomain — come
// from the nbody package itself).
var (
	// ErrBadRequest marks a request body the decoder cannot accept:
	// malformed JSON, an empty system, mismatched slice lengths, or an
	// unknown accuracy/compute selector. HTTP 400.
	ErrBadRequest = errors.New("serve: invalid request")
	// ErrTooLarge marks a request exceeding the configured size caps
	// (body bytes, particle count, hierarchy depth). HTTP 413.
	ErrTooLarge = errors.New("serve: request exceeds size limits")
	// ErrOverloaded marks an admission rejection: the tenant's queue is at
	// its configured depth. HTTP 429; the request was not enqueued.
	ErrOverloaded = errors.New("serve: tenant queue full")
	// ErrServerClosed marks requests caught in a server shutdown. HTTP 503.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrShed marks a cost-model admission rejection: the request's predicted
	// completion (queue wait + solve estimate) exceeds its deadline, so
	// queueing it could only produce a 504 after wasted work. HTTP 429 with a
	// Retry-After hint; concrete errors are *ShedError.
	ErrShed = errors.New("serve: shed, deadline unmeetable")
	// ErrDraining marks requests arriving after BeginDrain: the server is
	// finishing its in-flight work before shutdown and accepts no new work.
	// HTTP 503 with Retry-After, so a gateway or client retries elsewhere.
	ErrDraining = errors.New("serve: draining, not accepting new work")
)

// ShedError is the concrete cost-model rejection: it unwraps to ErrShed and
// carries what the admission layer knew — the predicted solve cost, the
// predicted queue wait, and the backlog-derived Retry-After hint the HTTP
// layer forwards to the client. Stale distinguishes the dequeue-time drop (a
// request that was admissible but aged past its deadline in queue) from the
// admission-time shed.
type ShedError struct {
	Tenant     string
	Estimate   time.Duration
	Wait       time.Duration
	RetryAfter time.Duration
	Stale      bool
}

func (e *ShedError) Error() string {
	if e.Stale {
		return fmt.Sprintf("serve: tenant %q request shed at dequeue: estimate %v no longer fits deadline", e.Tenant, e.Estimate)
	}
	return fmt.Sprintf("serve: tenant %q request shed: predicted wait %v + estimate %v exceeds deadline", e.Tenant, e.Wait, e.Estimate)
}

// Is makes errors.Is(err, ErrShed) hold for every ShedError.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// retryAfterHint converts a predicted queue wait into a Retry-After value:
// the wait rounded up to whole seconds, floored at one second (the header
// carries integral seconds, and "retry immediately" defeats the point of
// shedding).
func retryAfterHint(wait time.Duration) time.Duration {
	if wait <= time.Second {
		return time.Second
	}
	return wait.Round(time.Second) + time.Second
}

// SolveRequest is the body of POST /v1/solve. Positions and Charges carry
// the system (lengths must match); the remaining fields select the plan
// shape and the per-request behavior.
type SolveRequest struct {
	// Tenant names the queue the request is admitted to ("" is the
	// anonymous tenant, which is a tenant like any other).
	Tenant string `json:"tenant,omitempty"`
	// Positions are particle coordinates in the unit cube [0,1)^3.
	Positions [][3]float64 `json:"positions"`
	// Charges are the particle charges (gravitational masses).
	Charges []float64 `json:"charges"`
	// Compute selects the quantity: "potentials" (default) or
	// "accelerations" (potentials plus the field).
	Compute string `json:"compute,omitempty"`
	// Accuracy is the Anderson preset: fast (default) | balanced | accurate.
	Accuracy string `json:"accuracy,omitempty"`
	// Depth fixes the hierarchy depth; 0 selects the optimal depth for N,
	// deterministically, so equal-shape requests share a plan.
	Depth int `json:"depth,omitempty"`
	// Supernodes enables the interactive-field reduction; part of the plan
	// shape.
	Supernodes bool `json:"supernodes,omitempty"`
	// DeadlineMS bounds the request end to end (queue wait + solve); 0
	// uses the server default. The deadline propagates into the solver as
	// context cancellation.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Phases requests the per-request phase table (time and flops per
	// pipeline phase of this solve alone) in the response.
	Phases bool `json:"phases,omitempty"`

	// pos holds the positions instead of Positions when the scanner decoded
	// the body: already in the solver's layout, never converted.
	pos []nbody.Vec3
}

// SimulateRequest is the body of POST /v1/simulate: the SolveRequest fields
// plus the integration parameters. The response is a chunked stream of
// NDJSON Frame lines.
type SimulateRequest struct {
	SolveRequest
	// Steps is the number of leapfrog steps (required, >= 1).
	Steps int `json:"steps"`
	// DT is the timestep (required, > 0, finite).
	DT float64 `json:"dt"`
	// StreamEvery emits a Frame every k completed steps (default: Steps,
	// i.e. only the final frame). The final frame always carries the full
	// particle state.
	StreamEvery int `json:"stream_every,omitempty"`
	// CheckpointEvery attaches a resume token (the versioned CRC32C
	// checkpoint encoding, base64) to every k-th emitted non-final frame,
	// so a reader that loses the stream can restart it from the last token
	// it saw. 0 (default) emits no checkpoint tokens; interrupted frames
	// (server drain) always carry one regardless.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// ResumeToken restarts a simulation from a checkpoint frame of an
	// earlier stream instead of from Positions/Charges (the two are
	// mutually exclusive). The resumed stream continues the step numbering
	// and — given the same plan (depth, accuracy, supernodes) and backend —
	// the exact trajectory of the original: the final frame is
	// bitwise-identical to an uninterrupted run. Steps stays the original
	// total (it must exceed the checkpoint's step); DT must match the
	// checkpoint (or be 0 to adopt it).
	ResumeToken string `json:"resume_token,omitempty"`

	// resume is the decoded ResumeToken, carried from the decoder to the
	// stream loop.
	resume *nbody.CheckpointState
}

// SolveResponse is the body of a successful /v1/solve.
type SolveResponse struct {
	Tenant  string       `json:"tenant,omitempty"`
	N       int          `json:"n"`
	Phi     []float64    `json:"phi"`
	Acc     [][3]float64 `json:"acc,omitempty"`
	Backend string       `json:"backend"`
	// Rung is the degradation-ladder rung that served the solve (0 = the
	// preferred Anderson plan).
	Rung int `json:"rung"`
	// CacheHit reports whether the solve reused a warm plan (skipping
	// NewSolver and hitting the steady-state allocation-free path).
	CacheHit bool  `json:"cache_hit"`
	QueueNS  int64 `json:"queue_ns"`
	SolveNS  int64 `json:"solve_ns"`
	// PhaseTable is the per-request phase breakdown, present when the
	// request set Phases (rung-0 phases only; a degraded request reports
	// the phases the preferred rung ran before failing over).
	PhaseTable []PhaseRow `json:"phase_table,omitempty"`
	// Recovery holds the self-healing events this request triggered
	// (retries, degradations, breaker trips); omitted on a healthy solve.
	Recovery *RecoveryDelta `json:"recovery,omitempty"`
	// Degraded reports that the brownout controller rewrote this request to
	// a cheaper shape (lower accuracy and/or re-pinned depth) than asked for;
	// BrownoutLevel is the controller level that did it. A client that needs
	// the full-fidelity answer can retry after the Retry-After pressure
	// subsides — the response is still a correct solve, just a cheaper one.
	Degraded      bool `json:"degraded,omitempty"`
	BrownoutLevel int  `json:"brownout_level,omitempty"`

	// acc is the field of an accelerations solve as the solver wrote it; the
	// server encodes it as "acc" without building Acc.
	acc []nbody.Vec3
}

// PhaseRow is one per-request phase-table line.
type PhaseRow struct {
	Phase string `json:"phase"`
	NS    int64  `json:"ns"`
	Flops int64  `json:"flops"`
}

// RecoveryDelta is the per-request slice of the server's recovery counters:
// what the self-healing layer did for this request alone.
type RecoveryDelta struct {
	Retries      int64 `json:"retries,omitempty"`
	BreakerTrips int64 `json:"breaker_trips,omitempty"`
	Degradations int64 `json:"degradations,omitempty"`
}

// Frame is one NDJSON line of a /v1/simulate stream: energies every
// StreamEvery steps, and on the final frame the full particle state.
// Interrupted marks a clean early termination (server drain): the stream
// ends after this frame without reaching Steps, and ResumeToken restarts
// it where it stopped. ResumeToken also appears on every CheckpointEvery-th
// ordinary frame when the request asked for checkpoints.
type Frame struct {
	Step        int          `json:"step"`
	Time        float64      `json:"t"`
	Kinetic     float64      `json:"kinetic"`
	Potential   float64      `json:"potential"`
	Total       float64      `json:"total"`
	Final       bool         `json:"final,omitempty"`
	Interrupted bool         `json:"interrupted,omitempty"`
	ResumeToken string       `json:"resume_token,omitempty"`
	Positions   [][3]float64 `json:"positions,omitempty"`
	Velocity    [][3]float64 `json:"velocities,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Limits bounds what the decoder accepts before any solver work happens, so
// a forged request cannot make the server build an enormous plan.
type Limits struct {
	MaxN     int // particles per request
	MaxDepth int // hierarchy depth cap
}

// Domain returns the canonical solver domain: the unit cube with a hair of
// slack so boundary particles stay strictly inside (the same slack the
// repo's own distributions rely on).
func Domain() nbody.Box {
	return nbody.Box{Center: nbody.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1 + 1e-9}
}

// SimDomain returns the enlarged domain simulations solve in, so particles
// that drift out of the unit cube during integration stay inside the
// hierarchy (the same 4x margin cmd/nbody uses).
func SimDomain() nbody.Box {
	b := Domain()
	b.Side *= 4
	return b
}

// decodeRequest is both endpoints' way from the wire to a validated system.
// It reads the (already capped) body once, into a buffer sized from the
// declared length, and lets the scanner parse it straight into the solver's
// arrays. A body the scanner does not recognise — or one whose reading failed
// part-way — is replayed through encoding/json exactly as it arrived
// (decodeSolveRequest / decodeSimulateRequest), so what is accepted, and
// every error, is that path's decision alone. Validation is shared: the same
// resolve methods check a request whichever way its arrays were decoded.
func decodeRequest(body io.Reader, declared int64, lim Limits, sim bool) (*SimulateRequest, *nbody.System, error) {
	buf, rerr := ReadBody(body, declared)
	if req := new(SimulateRequest); rerr == nil && scanRequest(buf, req, sim, lim.MaxN) {
		var sys *nbody.System
		var err error
		if sim {
			sys, err = req.resolveSim(lim)
		} else {
			sys, err = req.resolve(lim, Domain())
		}
		if err != nil {
			return nil, nil, err
		}
		return req, sys, nil
	}
	replay := io.Reader(bytes.NewReader(buf))
	if rerr != nil {
		replay = io.MultiReader(replay, errReader{rerr})
	}
	if sim {
		return decodeSimulateRequest(replay, lim)
	}
	req, sys, err := decodeSolveRequest(replay, lim)
	if err != nil {
		return nil, nil, err
	}
	return &SimulateRequest{SolveRequest: *req}, sys, nil
}

// decodeJSON is the one encoding/json decode of a request body: the
// definition of the language both endpoints accept.
func decodeJSON(body io.Reader, req any) error {
	if err := json.NewDecoder(body).Decode(req); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return nil
}

// decodeSolveRequest parses and validates one solve body with encoding/json:
// the reference decodeRequest falls back on. On success the returned system
// has passed System.Validate against the canonical domain and the request's
// selectors have been resolved (depth chosen, accuracy known); every failure
// is typed (ErrBadRequest, ErrTooLarge, or a validation error wrapping
// nbody.ErrInvalidSystem / ErrOutOfDomain).
func decodeSolveRequest(body io.Reader, lim Limits) (*SolveRequest, *nbody.System, error) {
	var req SolveRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, nil, err
	}
	sys, err := req.resolve(lim, Domain())
	if err != nil {
		return nil, nil, err
	}
	return &req, sys, nil
}

// decodeSimulateRequest is decodeSolveRequest for the streaming endpoint.
func decodeSimulateRequest(body io.Reader, lim Limits) (*SimulateRequest, *nbody.System, error) {
	var req SimulateRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, nil, err
	}
	sys, err := req.resolveSim(lim)
	if err != nil {
		return nil, nil, err
	}
	return &req, sys, nil
}

// resolveSim validates a decoded simulate request: the integration
// parameters, then the system — fresh or resumed — against the enlarged
// simulation domain.
func (req *SimulateRequest) resolveSim(lim Limits) (*nbody.System, error) {
	if req.Steps < 1 {
		return nil, fmt.Errorf("%w: steps must be >= 1, got %d", ErrBadRequest, req.Steps)
	}
	if req.StreamEvery < 0 {
		return nil, fmt.Errorf("%w: stream_every must be >= 0, got %d", ErrBadRequest, req.StreamEvery)
	}
	if req.CheckpointEvery < 0 {
		return nil, fmt.Errorf("%w: checkpoint_every must be >= 0, got %d", ErrBadRequest, req.CheckpointEvery)
	}
	if req.ResumeToken == "" && (!(req.DT > 0) || req.DT > 1e6) {
		return nil, fmt.Errorf("%w: dt must be in (0, 1e6], got %g", ErrBadRequest, req.DT)
	}
	if req.StreamEvery == 0 {
		req.StreamEvery = req.Steps
	}
	if req.ResumeToken != "" {
		return req.resolveResume(lim, SimDomain())
	}
	return req.SolveRequest.resolve(lim, SimDomain())
}

// resolve validates the shared request fields against the limits and the
// given domain, fills the defaulted selectors in place (Compute, Accuracy,
// Depth), and returns the validated system.
func (r *SolveRequest) resolve(lim Limits, box nbody.Box) (*nbody.System, error) {
	n := len(r.Positions) + len(r.pos) // one of the two is empty
	if n == 0 {
		return nil, fmt.Errorf("%w: empty system", ErrBadRequest)
	}
	if lim.MaxN > 0 && n > lim.MaxN {
		return nil, fmt.Errorf("%w: %d particles, cap is %d", ErrTooLarge, n, lim.MaxN)
	}
	if len(r.Charges) != n {
		return nil, fmt.Errorf("%w: %d positions but %d charges", ErrBadRequest, n, len(r.Charges))
	}
	if err := r.resolveSelectors(lim); err != nil {
		return nil, err
	}
	// Depth 0 (auto) survives decoding: the server's planner resolves it —
	// deterministically in the problem shape, so equal auto-depth requests
	// still share one plan-cache entry — from the tuned table when the shape
	// has measured evidence and the analytic cost model otherwise.
	sys := &nbody.System{Positions: r.pos, Charges: r.Charges}
	if r.pos == nil {
		sys.Positions = make([]nbody.Vec3, n)
		for i, p := range r.Positions {
			sys.Positions[i] = nbody.Vec3{X: p[0], Y: p[1], Z: p[2]}
		}
	}
	if err := sys.Validate(box); err != nil {
		return nil, err
	}
	return sys, nil
}

// resolveSelectors validates and defaults the per-request selectors shared
// by the fresh and resume decode paths (Compute, Accuracy, Depth).
func (r *SolveRequest) resolveSelectors(lim Limits) error {
	switch r.Compute {
	case "":
		r.Compute = "potentials"
	case "potentials", "accelerations":
	default:
		return fmt.Errorf("%w: unknown compute %q (potentials | accelerations)", ErrBadRequest, r.Compute)
	}
	if r.Accuracy == "" {
		r.Accuracy = "fast"
	}
	if _, err := cli.Accuracy(r.Accuracy); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	switch {
	case r.Depth < 0 || r.Depth == 1:
		return fmt.Errorf("%w: depth must be 0 (auto) or >= 2, got %d", ErrBadRequest, r.Depth)
	case lim.MaxDepth > 0 && r.Depth > lim.MaxDepth:
		return fmt.Errorf("%w: depth %d, cap is %d", ErrTooLarge, r.Depth, lim.MaxDepth)
	}
	return nil
}
