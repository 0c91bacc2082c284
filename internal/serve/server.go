package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nbody"
	"nbody/internal/faults"
	"nbody/internal/metrics"
	"nbody/internal/plan"
	"nbody/internal/resilience"
	"nbody/internal/simd"
)

// Config configures a Server. The zero value of every field selects the
// documented default.
type Config struct {
	// Workers is the solver-worker fleet size (default: GOMAXPROCS/2,
	// minimum 2). Each worker runs one request's solve at a time; a solve
	// itself parallelizes over the shared internal/sched pool, so workers
	// provide request pipelining, not core count.
	Workers int
	// Policy is the admission policy: PolicyFair (default) or PolicyFIFO.
	Policy Policy
	// QueueDepth bounds each tenant's FIFO queue (default 16); a tenant at
	// depth gets 429.
	QueueDepth int
	// InflightPerTenant caps one tenant's concurrent solves under
	// PolicyFair (default 2; < 1 means no cap).
	InflightPerTenant int
	// PlanCacheCap is the number of idle warm plans retained (default 8;
	// 0 keeps the default — use -1 to disable plan reuse).
	PlanCacheCap int
	// MaxN caps the particle count per request (default 131072).
	MaxN int
	// MaxDepth caps the hierarchy depth per request (default 6).
	MaxDepth int
	// MaxBodyBytes caps the request body (default 64 MiB).
	MaxBodyBytes int64
	// DefaultDeadline bounds requests that do not set deadline_ms
	// (default 60s; < 0 disables).
	DefaultDeadline time.Duration
	// Ladder is the comma-separated fallback chain appended below the
	// Anderson rung of every plan (cli.LadderHelp syntax, e.g.
	// "bh,direct"); "" serves every request from the bare Anderson rung
	// still wrapped in the Resilient supervisor.
	Ladder string
	// Retry is the per-request supervisor policy (zero value = library
	// defaults: 3 attempts per rung with backoff).
	Retry nbody.RetryPolicy
	// DisableAdmission turns cost-model admission off: requests queue
	// unconditionally (the pre-overload-control behavior) and deadline
	// misses surface as 504s after the work was wasted. The load harness
	// uses it as the comparison baseline.
	DisableAdmission bool
	// DisableBrownout turns the adaptive brownout controller off: requests
	// always run at their requested fidelity, whatever the queue delay.
	DisableBrownout bool
	// PlanStore is the path of the persistent tuned-plan store. When set,
	// New warms the planner from it (so previously tuned shapes resolve
	// without search from the first request) and Close persists the table
	// back. "" keeps the planner memory-only.
	PlanStore string
	// BrownoutTarget is the brownout controller's queue-delay setpoint
	// (default 100ms; see resilience.BrownoutConfig).
	BrownoutTarget time.Duration
	// Logger receives one structured line per request (default: stderr).
	// Set Quiet to drop request logs entirely.
	Logger *log.Logger
	Quiet  bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
	}
	if c.Workers < 2 {
		c.Workers = 2
	}
	if c.Policy == "" {
		c.Policy = PolicyFair
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.InflightPerTenant == 0 {
		c.InflightPerTenant = 2
	}
	if c.PlanCacheCap == 0 {
		c.PlanCacheCap = 8
	}
	if c.MaxN == 0 {
		c.MaxN = 131072
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 6
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "nbodyd ", log.LstdFlags|log.Lmicroseconds)
	}
	return c
}

// Server is the multi-tenant solver service: an http.Handler owning the
// dispatcher, the plan cache, and the request accounting.
type Server struct {
	cfg     Config
	disp    *Dispatcher
	plans   *PlanCache
	mux     *http.ServeMux
	start   time.Time
	lat     *latencyRing
	brown   *resilience.Brownout
	planner *plan.Planner
	idem    *idemStore

	// draining flips once (BeginDrain or Close) and never back: new work
	// is 503'd, healthz reports "draining", and in-flight simulation
	// streams stop at their next frame boundary with an interrupted frame
	// carrying a resume token.
	draining atomic.Bool

	events metrics.Set[serverEvents]

	mu       sync.Mutex
	statuses map[int]int64
}

// serverEvents are the event counts no component of the server keeps for
// it: responses served at brownout-degraded fidelity, and the recovery
// events of every request it ran — each request's ladder delta off the plan
// it held, plus the checkpoints and resumes of each stream's simulation.
type serverEvents struct {
	browned  int64
	recovery metrics.RecoveryStats
}

// noteRecovery folds one request's recovery events — its ladder delta, and
// its simulation's checkpoints and resumes when it ran one — into the
// server's totals.
func (s *Server) noteRecovery(d RecoveryDelta, checkpoints, resumes int64) {
	if d == (RecoveryDelta{}) && checkpoints == 0 && resumes == 0 {
		return
	}
	s.events.Update(func(e *serverEvents) {
		e.recovery.Retries += d.Retries
		e.recovery.BreakerTrips += d.BreakerTrips
		e.recovery.Degradations += d.Degradations
		e.recovery.Checkpoints += checkpoints
		e.recovery.Resumes += resumes
	})
}

// New builds a Server and starts its worker fleet. Close releases it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	disp, err := NewDispatcher(cfg.Policy, cfg.Workers, cfg.QueueDepth, cfg.InflightPerTenant)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		disp:     disp,
		plans:    NewPlanCache(cfg.PlanCacheCap, cfg.Retry),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		lat:      newLatencyRing(4096),
		brown:    resilience.NewBrownout(resilience.BrownoutConfig{Target: cfg.BrownoutTarget}),
		planner:  plan.NewPlanner(cfg.MaxDepth),
		idem:     newIdemStore(0, 0),
		statuses: make(map[int]int64),
	}
	if cfg.PlanStore != "" {
		// A corrupt store is a loud startup failure, never a silently wrong
		// plan; the operator deletes the file or restores a backup.
		if _, err := s.planner.Load(cfg.PlanStore); err != nil {
			disp.Close()
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/drain", s.handleDrain)
	return s, nil
}

// Handler returns the HTTP handler (mount it on any http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the dispatcher (queued requests fail with 503, in-flight
// solves finish, workers exit) and persists the tuned-plan store when one
// is configured, so the next process warm-starts from this one's evidence.
//
// The draining flag goes up before the dispatcher closes: an in-flight
// simulation stream owns its worker for the whole integration, so without
// the flag Close would block until the longest stream ran to completion.
// With it, every stream stops at its next frame boundary, emits a cleanly
// terminated interrupted frame with a resume token, and releases its
// worker — no goroutine leak, no truncated frame.
func (s *Server) Close() {
	s.draining.Store(true)
	s.disp.Close()
	if s.cfg.PlanStore != "" {
		if err := s.planner.Save(s.cfg.PlanStore); err != nil {
			s.cfg.Logger.Printf("plan store save failed: %v", err)
		}
	}
}

// BeginDrain puts the server into draining mode: /v1/healthz reports
// "draining" (so gateways and orchestrators stop routing here), new solve
// and simulate requests are rejected with 503 + Retry-After, and running
// simulation streams finish their current frame and terminate cleanly
// with a resume token. Irreversible; idempotent.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) && !s.cfg.Quiet {
		s.cfg.Logger.Printf("draining: refusing new work, finishing %d in flight", s.disp.Stats().InFlight)
	}
}

// Draining reports whether BeginDrain (or Close) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain begins draining and blocks until every queued and in-flight
// request has finished or ctx fires. Close is still required afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for !s.disp.Quiesced() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// handleDrain is POST /v1/drain: the remote half of the rolling-restart
// recipe. It flips the server into draining mode and returns immediately;
// the caller polls /v1/healthz (or the process exit) for completion.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	s.BeginDrain()
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"draining"}` + "\n"))
}

// Planner exposes the plan subsystem (tests and the load harness).
func (s *Server) Planner() *plan.Planner { return s.planner }

// statusFor maps the error taxonomy onto HTTP status codes: the request
// classes to 4xx, the caller's deadline to 504, a ladder-wide solver
// failure to 500.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, nbody.ErrCorruptCheckpoint):
		// A damaged resume token is the client's (or a stale gateway's)
		// problem, never a server failure.
		return http.StatusBadRequest, "bad_resume_token"
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, nbody.ErrInvalidSystem),
		errors.Is(err, nbody.ErrOutOfDomain),
		errors.Is(err, nbody.ErrInvalidOptions):
		return http.StatusBadRequest, "invalid_request"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrShed):
		var se *ShedError
		if errors.As(err, &se) && se.Stale {
			return http.StatusTooManyRequests, "shed_stale"
		}
		return http.StatusTooManyRequests, "shed_deadline"
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		// The client is gone; the code is for the logs.
		return 499, "client_canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeError emits the JSON error body and accounts the status. Every 429
// and 503 carries a Retry-After header: the shed path derives it from the
// predicted backlog, everything else hints one second.
func (s *Server) writeError(w http.ResponseWriter, err error) (status int) {
	status, code := statusFor(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(retryAfterFor(err)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Code: code})
	return status
}

// retryAfterFor extracts the backlog-derived Retry-After hint of a shed
// rejection; every other retryable rejection hints one second.
func retryAfterFor(err error) time.Duration {
	var se *ShedError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter
	}
	return time.Second
}

// call is one request's trip through the shared lifecycle (admit → run →
// finish): what admission resolved, what the worker measured, and what the
// request log and the counters need afterwards.
type call struct {
	endpoint string
	t0       time.Time
	tenant   string
	key      Key
	// level and degraded are the brownout rewrite admission applied.
	level    int
	degraded bool

	queueWait time.Duration
	runTime   time.Duration // on the worker: plan checkout + work
	hit       bool          // the plan was warm
	rung      int
	units     int // units of key's work completed: 1 solve, or simulation steps
	delta     RecoveryDelta

	// Set by a simulation's stream: the response headers are out (an error
	// can no longer be written), and the simulation's own recovery events.
	streaming            bool
	checkpoints, resumes int64
}

// decodeBody is the shared request prologue: refuse new work while
// draining, cap the body, decode and validate it, and name an over-cap body
// for what it is.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, sim bool) (*SimulateRequest, *nbody.System, error) {
	if s.draining.Load() {
		return nil, nil, ErrDraining
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, sys, err := decodeRequest(r.Body, r.ContentLength, s.limits(), sim)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			err = fmt.Errorf("%w: body over %d bytes", ErrTooLarge, s.cfg.MaxBodyBytes)
		}
	}
	return req, sys, err
}

// admit resolves what a decoded request will run as: its deadline context
// (the request's own deadline_ms when set, the server default otherwise, on
// top of the client-disconnect cancellation the http server provides), the
// brownout rewrite — skipped for a caller that must keep the plan it names —
// and the plan key.
func (s *Server) admit(r *http.Request, c *call, req *SolveRequest, sys *nbody.System, sim, brownout bool) (context.Context, context.CancelFunc) {
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	switch {
	case req.DeadlineMS > 0:
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
	case s.cfg.DefaultDeadline > 0:
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
	}
	dist := plan.Fingerprint(sys.Positions)
	if brownout {
		c.level, c.degraded = s.applyBrownout(req, sys.Len(), dist, sim)
	}
	c.key = s.keyFor(req, sys.Len(), dist, sim)
	return ctx, cancel
}

// run is the shared middle of every request: admission against the
// planner's estimate for units units of the key's work, then — on a worker,
// with a plan checked out — the endpoint's own work, and the accounting of
// what it healed and what it cost. work returns the units it completed (one
// solve, or the simulation steps integrated) and their measured cost when it
// has a better figure than the worker's wall clock (zero otherwise).
func (s *Server) run(ctx context.Context, c *call, units int, work func(context.Context, *Plan) (int, time.Duration, error)) error {
	enq := time.Now()
	return s.disp.DoBudget(ctx, c.tenant, s.budgetFor(ctx, c.key, units), func(ctx context.Context) error {
		c.queueWait = time.Since(enq)
		s.observePressure(c.queueWait)
		faults.Fire(SiteWorker)
		start := time.Now()
		p, hit, err := s.plans.Acquire(c.key)
		if err != nil {
			return err
		}
		defer s.plans.Release(p)
		c.hit = hit

		// The plan is this request's alone until Release, so the ladder's
		// counter delta is exactly what healing this request took — a failed
		// request's retries and trips count too.
		r0, b0, d0 := p.Ladder.Counters()
		var measured time.Duration
		c.units, measured, err = work(ctx, p)
		r1, b1, d1 := p.Ladder.Counters()
		c.delta = RecoveryDelta{Retries: r1 - r0, BreakerTrips: b1 - b0, Degradations: d1 - d0}
		s.noteRecovery(c.delta, c.checkpoints, c.resumes)
		c.rung = p.Ladder.LastRung()
		c.runTime = time.Since(start)

		if err == nil && c.units > 0 {
			if measured <= 0 {
				measured = c.runTime / time.Duration(c.units)
			}
			s.planner.Observe(c.key, measured)
		}
		return err
	})
}

// finish accounts a finished request: the browned-out tally, the status
// counts, the latency ring, and the structured request log — one line per
// request with everything an operator greps for.
func (s *Server) finish(c *call, status int, err error) {
	if c.degraded && err == nil && c.units > 0 {
		s.events.Update(func(e *serverEvents) { e.browned++ })
	}
	s.mu.Lock()
	s.statuses[status]++
	s.mu.Unlock()
	if status < 400 {
		s.lat.record(time.Since(c.t0))
	}
	if s.cfg.Quiet {
		return
	}
	detail := ""
	if err != nil {
		detail = fmt.Sprintf(" err=%q", err.Error())
	}
	hit := "miss"
	if c.hit {
		hit = "hit"
	}
	s.cfg.Logger.Printf("%s tenant=%q %s status=%d plan=%s rung=%d queue=%s solve=%s%s",
		c.endpoint, c.tenant, c.key, status, hit, c.rung,
		c.queueWait.Round(time.Microsecond), c.runTime.Round(time.Microsecond), detail)
}

// shapeFor builds the canonical problem shape of a request.
func shapeFor(req *SolveRequest, n int, dist string) plan.ShapeKey {
	return plan.ShapeKey{N: n, Dist: dist, Accuracy: req.Accuracy}
}

// keyFor resolves the full plan key of a request through the planner: a
// pinned depth (req.Depth > 0) is honored verbatim; an auto request gets
// the tuned depth when the shape has measured evidence, the analytic
// cost-model depth otherwise. The resolution provenance lands in the
// planner counters on /v1/metrics.
func (s *Server) keyFor(req *SolveRequest, n int, dist string, sim bool) Key {
	pl, _ := s.planner.Resolve(shapeFor(req, n, dist), plan.Request{
		Depth:      req.Depth,
		Supernodes: req.Supernodes,
		Sim:        sim,
		Ladder:     s.cfg.Ladder,
		MaxDepth:   s.cfg.MaxDepth,
	})
	return Key{Shape: shapeFor(req, n, dist), Sim: sim, Plan: pl}
}

// handleSolve is POST /v1/solve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	c := &call{endpoint: "solve", t0: time.Now()}
	dec, sys, err := s.decodeBody(w, r, false)
	if err != nil {
		s.finish(c, s.writeError(w, err), err)
		return
	}
	req := &dec.SolveRequest
	c.tenant = req.Tenant

	// Idempotent replay: a failed-over or hedged retry carrying the same
	// Idempotency-Key as a solve this replica already answered gets the
	// stored bytes back — no admission, no planner observation, no
	// double-counting of work that already happened.
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey != "" {
		if body, ok := s.idem.get(req.Tenant, idemKey); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Idempotent-Replay", "1")
			_, _ = w.Write(body)
			c.hit = true
			s.finish(c, http.StatusOK, nil)
			return
		}
	}

	ctx, cancel := s.admit(r, c, req, sys, false, true)
	defer cancel()
	var resp *SolveResponse
	err = s.run(ctx, c, 1, func(ctx context.Context, p *Plan) (_ int, measured time.Duration, err error) {
		resp, measured, err = execute(ctx, req, sys, p)
		return 1, measured, err
	})
	// The solve can cross the finish line after the request's clock ran
	// out: cancellation checks are chunk-granular, and on a saturated
	// machine the context timer itself fires late, so ctx.Err() can still
	// be nil past the wall deadline — compare against the deadline
	// directly. A late result is useless to the caller: report the deadline
	// failure it is, never a late 200; the measurement run just fed the
	// planner is exactly the calibration that stops the next one being
	// admitted.
	if dl, ok := ctx.Deadline(); err == nil && ok && time.Now().After(dl) {
		err = fmt.Errorf("result ready after deadline: %w", context.DeadlineExceeded)
	}
	if err != nil {
		s.finish(c, s.writeError(w, err), err)
		return
	}

	resp.Rung, resp.CacheHit = c.rung, c.hit
	resp.QueueNS = int64(c.queueWait)
	resp.SolveNS = int64(c.runTime)
	if c.delta != (RecoveryDelta{}) {
		resp.Recovery = &c.delta
	}
	if c.degraded {
		resp.Degraded = true
		resp.BrownoutLevel = c.level
	}
	s.reply(w, c, idemKey, resp)
}

// reply encodes a solve's response once, for keyed and unkeyed requests
// alike, so the exact bytes the client saw are what a replay returns. A
// response that cannot be encoded (a non-finite value got past the ladder's
// checks) is the server's failure and nothing is on the wire yet: a 500 with
// a body. A failed write means the client hung up mid-body: nothing to send,
// just account the 499.
func (s *Server) reply(w http.ResponseWriter, c *call, idemKey string, resp *SolveResponse) {
	body, err := encodeSolveResponse(resp)
	if err != nil {
		err = fmt.Errorf("encode response: %w", err)
		s.finish(c, s.writeError(w, err), err)
		return
	}
	if idemKey != "" {
		// The store keeps an exactly sized copy of its own; body's sizing
		// slack goes with the request.
		s.idem.put(c.tenant, idemKey, bytes.Clone(body))
	}
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	if _, err = w.Write(body); err != nil {
		status = 499
	}
	s.finish(c, status, nil)
}

// encodeSolveResponse is json.Marshal(resp) plus the closing newline, with
// the numeric arrays — phi, and acc of an accelerations solve — written by
// the append encoder into one buffer sized up front. The envelope around them
// still goes through encoding/json, so its escaping and omitempty rules
// cannot drift; phi sits where Marshal leaves `"phi":null` for the nil slice
// (a sequence no JSON string can contain: its quotes would be escaped).
func encodeSolveResponse(resp *SolveResponse) ([]byte, error) {
	env := *resp
	env.Phi = nil
	head, err := json.Marshal(&env)
	if err != nil {
		return nil, err
	}
	at := bytes.Index(head, []byte(`"phi":null`)) + len(`"phi":`)
	out := make([]byte, 0, len(head)+16+floatBytes*(len(resp.Phi)+3*len(resp.acc))+4*len(resp.acc))
	out = append(out, head[:at]...)
	if out, err = appendFloats(out, resp.Phi); err == nil && len(resp.acc) > 0 {
		out, err = appendVec3s(append(out, `,"acc":`...), resp.acc)
	}
	if err != nil {
		return nil, err
	}
	return append(append(out, head[at+len("null"):]...), '\n'), nil
}

// execute runs one admitted solve on its checked-out plan: the Resilient
// ladder with the request context, results copied out before the plan goes
// back. The returned duration is the request's measured phase-table total
// (Snapshot.Diff scoped to this solve), the planner's preferred
// observation; zero when the preferred rung recorded nothing.
func execute(ctx context.Context, req *SolveRequest, sys *nbody.System, p *Plan) (*SolveResponse, time.Duration, error) {
	var before metrics.Snapshot
	if p.Rung0 != nil {
		before = *p.Rung0.Stats()
	}
	var err error
	switch req.Compute {
	case "accelerations":
		err = p.Ladder.AccelerationsIntoCtx(ctx, p.Phi, p.Acc, sys)
	default:
		err = p.Ladder.PotentialsIntoCtx(ctx, p.Phi, sys)
	}
	if err != nil {
		return nil, 0, err
	}

	resp := &SolveResponse{
		Tenant:  req.Tenant,
		N:       sys.Len(),
		Phi:     append([]float64(nil), p.Phi...),
		Backend: simd.Active(),
	}
	if req.Compute == "accelerations" {
		resp.acc = append([]nbody.Vec3(nil), p.Acc...)
	}
	var measured time.Duration
	if p.Rung0 != nil {
		after := *p.Rung0.Stats()
		diff := after.Diff(&before)
		measured = diff.TotalTime()
		if req.Phases {
			for ph := metrics.Phase(0); ph < metrics.NumPhases; ph++ {
				if diff.Time[ph] == 0 && diff.Flops[ph] == 0 && diff.Calls[ph] == 0 {
					continue
				}
				resp.PhaseTable = append(resp.PhaseTable, PhaseRow{
					Phase: ph.String(), NS: int64(diff.Time[ph]), Flops: diff.Flops[ph],
				})
			}
		}
	}
	return resp, measured, nil
}

// handleSimulate is POST /v1/simulate: one admitted job that owns a worker
// for the whole integration, streaming NDJSON frames as it goes.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	c := &call{endpoint: "simulate", t0: time.Now()}
	req, sys, err := s.decodeBody(w, r, true)
	if err != nil {
		s.finish(c, s.writeError(w, err), err)
		return
	}
	c.tenant = req.Tenant

	// A resumed stream must continue on exactly the plan the original ran
	// (the caller pins depth and accuracy from the original's headers) —
	// brownout rewriting it would fork the trajectory.
	ctx, cancel := s.admit(r, c, &req.SolveRequest, sys, true, req.resume == nil)
	defer cancel()
	if c.degraded {
		// The NDJSON stream has no response envelope; the degradation tag
		// rides the headers instead.
		w.Header().Set("X-Degraded", "1")
		w.Header().Set("X-Brownout-Level", fmt.Sprintf("%d", c.level))
	}
	steps := req.Steps
	if req.resume != nil {
		steps -= req.resume.Step
	}
	err = s.run(ctx, c, steps, func(ctx context.Context, p *Plan) (int, time.Duration, error) {
		done, err := s.stream(ctx, w, req, sys, p, c)
		return done, 0, err
	})
	status := http.StatusOK
	switch {
	case err == nil:
	case c.streaming:
		// Headers are gone; the truncated stream (no final frame) is the
		// error signal the client sees.
		status, _ = statusFor(err)
	default:
		status = s.writeError(w, err)
	}
	s.finish(c, status, err)
}

// stream runs the integration on the checked-out plan, emitting a Frame
// every StreamEvery steps and a final Frame with the full particle state.
// Cancellation lands between chunks (the solver's own ctx checks bound each
// chunk's latency). A resume request continues from its decoded checkpoint
// instead of step zero; CheckpointEvery attaches resume tokens to periodic
// frames; and a server drain stops the loop at the next frame boundary with
// a cleanly terminated interrupted frame carrying a token. Returns the
// number of steps actually integrated (what the planner should observe).
func (s *Server) stream(ctx context.Context, w http.ResponseWriter, req *SimulateRequest, sys *nbody.System, p *Plan, c *call) (int, error) {
	var sim *nbody.Simulation
	var err error
	start := 0
	if req.resume != nil {
		sim, err = nbody.ResumeSimulationState(req.resume, ctxAccelerator{p.Ladder, ctx})
		if sim != nil {
			start = req.resume.Step
		}
	} else {
		sim, err = nbody.NewSimulation(sys, nil, ctxAccelerator{p.Ladder, ctx}, req.DT)
	}
	if sim != nil {
		defer func() { c.checkpoints, c.resumes = sim.Counters() }()
	}
	if err != nil {
		return 0, err
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Plan-Cache", map[bool]string{true: "hit", false: "miss"}[c.hit])
	// The plan the stream runs on, so a gateway resuming it elsewhere can
	// pin the same depth and accuracy for bitwise continuation.
	w.Header().Set("X-Plan-Depth", fmt.Sprintf("%d", p.Key.Plan.Depth))
	w.Header().Set("X-Plan-Accuracy", p.Key.Shape.Accuracy)
	c.streaming = true
	flusher, _ := w.(http.Flusher)

	frames := 0
	emit := func(final, interrupted bool) error {
		k, u, e := sim.Energy()
		f := Frame{Step: sim.Steps(), Time: sim.Time(), Kinetic: k, Potential: u, Total: e,
			Final: final, Interrupted: interrupted}
		// An interrupted frame without a token would be a dead end.
		if interrupted || (!final && req.CheckpointEvery > 0 && frames%req.CheckpointEvery == 0) {
			tok, terr := encodeResumeToken(sim)
			if terr != nil {
				return terr
			}
			f.ResumeToken = tok
		}
		frames++
		// The scalars and the token through encoding/json; the final frame's
		// particle state — the object's last two fields — appended to it.
		line, err := json.Marshal(f)
		if err == nil && final {
			line = slices.Grow(line[:len(line)-1], 32+6*sys.Len()*(floatBytes+2))
			line, err = appendVec3s(append(line, `,"positions":`...), sim.System.Positions)
			if err == nil {
				line, err = appendVec3s(append(line, `,"velocities":`...), sim.Velocities)
			}
			line = append(line, '}')
		}
		if err == nil {
			_, err = w.Write(append(line, '\n'))
		}
		if err != nil {
			return fmt.Errorf("%w: %v", context.Canceled, err)
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	for done := start; done < req.Steps; {
		if err := ctx.Err(); err != nil {
			return done - start, err
		}
		if s.draining.Load() {
			// Server shutting down: hand the stream back cleanly, resumable
			// exactly where it stopped. This is a successful response — the
			// client (or gateway) carries on elsewhere.
			return done - start, emit(false, true)
		}
		chunk := req.StreamEvery
		if rem := req.Steps - done; chunk > rem {
			chunk = rem
		}
		if err := sim.Step(chunk); err != nil {
			return done - start, err
		}
		done += chunk
		if err := emit(done == req.Steps, false); err != nil {
			return done - start, err
		}
	}
	return req.Steps - start, nil
}

// ctxAccelerator threads the request context into Simulation's
// context-free Accelerator interface, so a canceled request aborts the
// in-flight solve of the current step rather than finishing it.
type ctxAccelerator struct {
	r   *nbody.Resilient
	ctx context.Context
}

func (c ctxAccelerator) Accelerations(s *nbody.System) ([]float64, []nbody.Vec3, error) {
	return c.r.AccelerationsCtx(c.ctx, s)
}

func (c ctxAccelerator) AccelerationsInto(phi []float64, acc []nbody.Vec3, s *nbody.System) error {
	return c.r.AccelerationsIntoCtx(c.ctx, phi, acc, s)
}

func (s *Server) limits() Limits {
	return Limits{MaxN: s.cfg.MaxN, MaxDepth: s.cfg.MaxDepth}
}

// Metrics is the body of GET /v1/metrics: everything the server knows
// about itself, in one JSON document.
type Metrics struct {
	UptimeMS  int64                  `json:"uptime_ms"`
	Backend   string                 `json:"backend"`
	Policy    Policy                 `json:"policy"`
	Workers   int                    `json:"workers"`
	Admission DispatchStats          `json:"admission"`
	Tenants   map[string]TenantStats `json:"tenants,omitempty"`
	PlanCache CacheStats             `json:"plan_cache"`
	Latency   LatencyStats           `json:"latency"`
	Statuses  map[string]int64       `json:"statuses"`
	Recovery  metrics.RecoveryStats  `json:"recovery"`
	Overload  OverloadMetrics        `json:"overload"`
	Planner   PlannerMetrics         `json:"planner"`
	// Draining reports whether the server has begun its shutdown drain.
	Draining bool `json:"draining,omitempty"`
	// Idempotency is the solve-replay registry occupancy.
	Idempotency IdemMetrics `json:"idempotency"`
}

// IdemMetrics is the replay-registry section of /v1/metrics.
type IdemMetrics struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// PlannerMetrics is the plan-subsystem section of /v1/metrics: where the
// persistent store lives, and this server's planner counters (tune
// hits/misses, measured searches and their total time, plan provenance
// tallies, store traffic).
type PlannerMetrics struct {
	Store    string               `json:"store,omitempty"`
	Counters metrics.PlannerStats `json:"counters"`
}

// ReadMetrics assembles the metrics document (also used in-process by the
// load harness).
func (s *Server) ReadMetrics() Metrics {
	s.mu.Lock()
	statuses := make(map[string]int64, len(s.statuses))
	for code, n := range s.statuses {
		statuses[fmt.Sprintf("%d", code)] = n
	}
	s.mu.Unlock()
	entries, bytes := s.idem.stats()
	idem := IdemMetrics{Entries: entries, Bytes: bytes}
	return Metrics{
		UptimeMS:  time.Since(s.start).Milliseconds(),
		Backend:   simd.Active(),
		Policy:    s.cfg.Policy,
		Workers:   s.cfg.Workers,
		Admission: s.disp.Stats(),
		Tenants:   s.disp.TenantSnapshot(),
		PlanCache: s.plans.Stats(),
		Latency:   s.lat.stats(),
		Statuses:  statuses,
		Recovery:  s.events.Read().recovery,
		Overload:  s.readOverload(),
		Planner: PlannerMetrics{
			Store:    s.cfg.PlanStore,
			Counters: s.planner.Counters(),
		},
		Draining:    s.draining.Load(),
		Idempotency: idem,
	}
}

// handleMetrics is GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.ReadMetrics())
}

// handleHealthz is GET /v1/healthz. A draining server still answers 200 —
// it is alive and finishing work — but the body flips to "draining" so
// gateways and orchestrators stop routing new requests to it before the
// process exits.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		_, _ = w.Write([]byte(`{"status":"draining"}` + "\n"))
		return
	}
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}
