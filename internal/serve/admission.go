package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nbody/internal/faults"
)

// Policy selects how workers pick the next admitted request.
type Policy string

const (
	// PolicyFIFO serves strict global arrival order with no per-tenant
	// concurrency cap: simple and fast for cooperative tenants, but one
	// flooding tenant monopolizes the workers (its queue bound is the only
	// brake). The baseline policy of the load-test comparison.
	PolicyFIFO Policy = "fifo"
	// PolicyFair round-robins across tenants with queued work and caps the
	// per-tenant in-flight count, so no tenant starves another: a flooding
	// tenant is throttled to its share and its excess is bounced at
	// admission instead of aging in front of everyone else's work.
	PolicyFair Policy = "fair"
)

// ParsePolicy validates a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyFIFO, PolicyFair:
		return Policy(s), nil
	}
	return "", fmt.Errorf("unknown admission policy %q (fifo | fair)", s)
}

// Fault-injection sites of the admission path (chaos harness): an enqueue
// stall delays the handler before its request reaches the queue, a dequeue
// stall holds a worker between claiming a job and running it — the two
// transport-level chokepoints a real overload hits.
const (
	SiteEnqueue = "serve/enqueue"
	SiteDequeue = "serve/dequeue"
	SiteWorker  = "serve/worker"
)

// Sites lists the serving layer's fault sites, in the repo convention
// (tests reference the exported list so a renamed site fails compilation).
var Sites = []string{SiteEnqueue, SiteDequeue, SiteWorker}

// Budget carries a request's admission-control inputs: the predicted solve
// cost and the propagated deadline. The zero value disables cost-model
// admission for the request (it is queued exactly as before PR 8): a zero
// Estimate means the estimator had nothing actionable, a zero Deadline
// means the caller imposed none.
type Budget struct {
	Estimate time.Duration
	Deadline time.Time
}

// job is one admitted request waiting for a worker.
type job struct {
	tq   *tenantQ
	ctx  context.Context
	fn   func(context.Context) error
	err  error
	done chan struct{}
	seq  uint64
	bud  Budget
}

// tenantQ is one tenant's FIFO queue plus its in-flight count.
type tenantQ struct {
	name     string
	jobs     []*job
	inflight int
}

// TenantStats are one tenant's admission counters (persist after the
// tenant's queue drains).
type TenantStats struct {
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed,omitempty"`       // deadline-shed at admission
	ShedStale int64 `json:"shed_stale,omitempty"` // dropped unmeetable at dequeue
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"` // withdrawn while queued
}

// DispatchStats aggregate the dispatcher's admission counters.
type DispatchStats struct {
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"`
	ShedStale int64 `json:"shed_stale"`
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	Queued    int   `json:"queued"`
	InFlight  int   `json:"in_flight"`
	// BacklogMS is the current predicted queue wait (the admission
	// estimate a new request would see).
	BacklogMS float64 `json:"backlog_ms"`
}

// Dispatcher owns the worker fleet and the per-tenant queues. Admission is
// bounded: a tenant whose queue is at depth gets ErrOverloaded immediately
// (the HTTP 429 path) rather than unbounded buffering. Do blocks the
// calling handler until the request ran or its context fired; a request
// whose context fires while still queued is withdrawn without running.
type Dispatcher struct {
	policy      Policy
	depth       int // per-tenant queue bound
	inflightCap int // per-tenant concurrent solves (fair policy)
	workers     int

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQ
	rr      []string // round-robin order over tenants with state
	rrIdx   int
	seq     uint64
	queued  int
	closed  bool
	wg      sync.WaitGroup

	// Predicted-cost bookkeeping for the admission wait model: the summed
	// estimates of queued and of currently running jobs, maintained on
	// enqueue/claim/withdraw/completion.
	queuedEstNS  int64
	runningEstNS int64

	stats       DispatchStats
	tenantStats map[string]*TenantStats
	inFlight    int
}

// NewDispatcher starts workers goroutines serving per-tenant queues of the
// given depth under the given policy. inflightCap bounds one tenant's
// concurrent solves under PolicyFair (ignored by PolicyFIFO; < 1 means no
// cap).
func NewDispatcher(policy Policy, workers, depth, inflightCap int) (*Dispatcher, error) {
	if _, err := ParsePolicy(string(policy)); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("serve: need at least one worker, got %d", workers)
	}
	if depth < 1 {
		return nil, fmt.Errorf("serve: queue depth must be >= 1, got %d", depth)
	}
	d := &Dispatcher{
		policy:      policy,
		depth:       depth,
		inflightCap: inflightCap,
		workers:     workers,
		tenants:     make(map[string]*tenantQ),
		tenantStats: make(map[string]*TenantStats),
	}
	d.cond = sync.NewCond(&d.mu)
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	return d, nil
}

// Do admits fn for tenant with no admission budget: the pre-PR 8 contract,
// kept for callers (and tests) that queue unconditionally.
func (d *Dispatcher) Do(ctx context.Context, tenant string, fn func(context.Context) error) error {
	return d.DoBudget(ctx, tenant, Budget{}, fn)
}

// predictedWaitLocked is the dispatcher's queue-delay estimate for a newly
// admitted request: the summed predicted cost of all queued work plus half
// the in-flight work (on average a running solve is halfway done), divided
// across the worker fleet. It deliberately ignores per-tenant fairness
// caps — a global lower bound is what the shed decision needs, and the
// Retry-After hint only has to be the right order of magnitude. d.mu must
// be held.
func (d *Dispatcher) predictedWaitLocked() time.Duration {
	return time.Duration((d.queuedEstNS + d.runningEstNS/2) / int64(d.workers))
}

// DoBudget admits fn for tenant and blocks until it ran (returning its
// error), the queue rejected it (ErrOverloaded / *ShedError /
// ErrServerClosed), or ctx fired while it was still queued (returning
// ctx.Err()). Once fn starts, DoBudget waits for it: fn receives ctx, so
// cancellation reaches a running solve through the solver's own ctx checks.
//
// When bud carries both an estimate and a deadline, cost-model admission
// applies: a request whose predicted completion (queue wait + solve
// estimate) exceeds its deadline is shed immediately with a *ShedError —
// the 429 path — instead of queueing work that can only 504. The same
// check re-runs at dequeue time, so a request whose deadline became
// unmeetable while it aged in queue is dropped before it wastes a worker.
func (d *Dispatcher) DoBudget(ctx context.Context, tenant string, bud Budget, fn func(context.Context) error) error {
	faults.Fire(SiteEnqueue)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrServerClosed
	}
	ts := d.statsFor(tenant)
	if bud.Estimate > 0 && !bud.Deadline.IsZero() {
		wait := d.predictedWaitLocked()
		if predicted := time.Now().Add(wait + bud.Estimate); predicted.After(bud.Deadline) {
			ts.Shed++
			d.stats.Shed++
			d.mu.Unlock()
			return &ShedError{Tenant: tenant, Estimate: bud.Estimate, Wait: wait, RetryAfter: retryAfterHint(wait)}
		}
	}
	tq := d.tenants[tenant]
	if tq == nil {
		tq = &tenantQ{name: tenant}
		d.tenants[tenant] = tq
		d.rr = append(d.rr, tenant)
	}
	if len(tq.jobs) >= d.depth {
		ts.Rejected++
		d.stats.Rejected++
		d.mu.Unlock()
		return fmt.Errorf("%w: tenant %q at depth %d", ErrOverloaded, tenant, d.depth)
	}
	d.seq++
	j := &job{tq: tq, ctx: ctx, fn: fn, done: make(chan struct{}), seq: d.seq, bud: bud}
	tq.jobs = append(tq.jobs, j)
	d.queued++
	d.queuedEstNS += int64(bud.Estimate)
	ts.Admitted++
	d.stats.Admitted++
	d.cond.Signal()
	d.mu.Unlock()

	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		if d.withdraw(j) {
			return ctx.Err()
		}
		// Already running (or finished): the solve sees ctx itself.
		<-j.done
		return j.err
	}
}

// withdraw removes a still-queued job, reporting whether it succeeded (a
// job already claimed by a worker cannot be withdrawn).
func (d *Dispatcher) withdraw(j *job) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, q := range j.tq.jobs {
		if q == j {
			j.tq.jobs = append(j.tq.jobs[:i:i], j.tq.jobs[i+1:]...)
			d.queued--
			d.queuedEstNS -= int64(j.bud.Estimate)
			d.statsFor(j.tq.name).Canceled++
			d.stats.Canceled++
			d.maybeReap(j.tq)
			return true
		}
	}
	return false
}

// worker is one member of the fleet: claim the next runnable job under the
// policy, run it unlocked, account completion, repeat until Close.
func (d *Dispatcher) worker() {
	defer d.wg.Done()
	d.mu.Lock()
	for {
		j := d.next()
		if j == nil {
			if d.closed {
				d.mu.Unlock()
				return
			}
			d.cond.Wait()
			continue
		}
		// Dequeue-time re-check: a job admitted with slack may have aged
		// past the point where its deadline is meetable; running it would
		// burn this worker on work that can only 504. Drop it here, still
		// holding the lock, and claim the next job instead.
		if j.bud.Estimate > 0 && !j.bud.Deadline.IsZero() &&
			time.Now().Add(j.bud.Estimate).After(j.bud.Deadline) {
			j.err = &ShedError{Tenant: j.tq.name, Estimate: j.bud.Estimate, Stale: true,
				RetryAfter: retryAfterHint(d.predictedWaitLocked())}
			close(j.done)
			d.runningEstNS -= int64(j.bud.Estimate)
			j.tq.inflight--
			ts := d.statsFor(j.tq.name)
			ts.ShedStale++
			ts.Completed++
			d.stats.ShedStale++
			d.stats.Completed++
			d.maybeReap(j.tq)
			continue
		}
		d.inFlight++
		d.mu.Unlock()

		faults.Fire(SiteDequeue)
		if err := j.ctx.Err(); err != nil {
			j.err = err
		} else {
			j.err = j.fn(j.ctx)
		}
		close(j.done)

		d.mu.Lock()
		d.inFlight--
		d.runningEstNS -= int64(j.bud.Estimate)
		j.tq.inflight--
		d.statsFor(j.tq.name).Completed++
		d.stats.Completed++
		d.maybeReap(j.tq)
		// A finished solve may unblock a fair-policy tenant that was at
		// its in-flight cap.
		d.cond.Signal()
	}
}

// next picks the next runnable job under the policy, or nil. Called with
// the lock held; claims the job (removes it from its queue, increments the
// tenant's in-flight count).
func (d *Dispatcher) next() *job {
	if d.queued == 0 {
		return nil
	}
	switch d.policy {
	case PolicyFIFO:
		// Strict global arrival order: the oldest queued job anywhere.
		var best *tenantQ
		for _, name := range d.rr {
			tq := d.tenants[name]
			if len(tq.jobs) > 0 && (best == nil || tq.jobs[0].seq < best.jobs[0].seq) {
				best = tq
			}
		}
		if best == nil {
			return nil
		}
		return d.claim(best)
	default: // PolicyFair
		for i := 0; i < len(d.rr); i++ {
			tq := d.tenants[d.rr[(d.rrIdx+i)%len(d.rr)]]
			if len(tq.jobs) == 0 {
				continue
			}
			if d.inflightCap > 0 && tq.inflight >= d.inflightCap {
				continue
			}
			d.rrIdx = (d.rrIdx + i + 1) % len(d.rr)
			return d.claim(tq)
		}
		return nil
	}
}

// claim pops tq's queue head. Called with the lock held.
func (d *Dispatcher) claim(tq *tenantQ) *job {
	j := tq.jobs[0]
	tq.jobs = tq.jobs[1:]
	d.queued--
	d.queuedEstNS -= int64(j.bud.Estimate)
	d.runningEstNS += int64(j.bud.Estimate)
	tq.inflight++
	return j
}

// maybeReap drops a tenant's queue state once it is fully idle, so tenant
// churn does not grow the maps without bound (the counters in tenantStats
// persist). Called with the lock held.
func (d *Dispatcher) maybeReap(tq *tenantQ) {
	if len(tq.jobs) > 0 || tq.inflight > 0 {
		return
	}
	delete(d.tenants, tq.name)
	for i, name := range d.rr {
		if name == tq.name {
			d.rr = append(d.rr[:i:i], d.rr[i+1:]...)
			if d.rrIdx > i {
				d.rrIdx--
			}
			if len(d.rr) > 0 {
				d.rrIdx %= len(d.rr)
			} else {
				d.rrIdx = 0
			}
			break
		}
	}
}

// Close rejects all queued jobs with ErrServerClosed, waits for in-flight
// solves to finish, and stops every worker. After Close, Do returns
// ErrServerClosed.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.closed = true
	for _, tq := range d.tenants {
		for _, j := range tq.jobs {
			j.err = ErrServerClosed
			close(j.done)
		}
		tq.jobs = nil
	}
	d.queued = 0
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// statsFor returns (creating if needed) tenant's persistent counters.
// Called with the lock held.
func (d *Dispatcher) statsFor(tenant string) *TenantStats {
	ts := d.tenantStats[tenant]
	if ts == nil {
		ts = &TenantStats{}
		d.tenantStats[tenant] = ts
	}
	return ts
}

// Stats snapshots the aggregate counters.
func (d *Dispatcher) Stats() DispatchStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Queued = d.queued
	s.InFlight = d.inFlight
	s.BacklogMS = float64(d.predictedWaitLocked().Microseconds()) / 1e3
	return s
}

// Quiesced reports whether the dispatcher has no queued and no running
// work — the drain loop's completion condition.
func (d *Dispatcher) Quiesced() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queued == 0 && d.inFlight == 0
}

// TenantSnapshot copies the per-tenant counters.
func (d *Dispatcher) TenantSnapshot() map[string]TenantStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]TenantStats, len(d.tenantStats))
	for name, ts := range d.tenantStats {
		out[name] = *ts
	}
	return out
}
