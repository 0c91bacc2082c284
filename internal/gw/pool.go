// Package gw is the replicated serving tier: a reverse-proxy gateway in
// front of N nbodyd replicas. It owns replica health (active /v1/healthz
// probing plus passive ejection on connection failures, with a per-replica
// circuit breaker from internal/resilience), solve routing (least-
// outstanding placement, retry-budgeted failover with idempotency keys,
// optional hedged requests for tail latency on small shapes), and
// crash-survivable /v1/simulate streams: the gateway injects checkpoint
// frames into upstream streams, tracks the latest resume token, and when a
// replica dies mid-stream transparently resumes the simulation on a
// healthy replica — the client sees one uninterrupted NDJSON stream whose
// final frame is bitwise-identical to a single-process run.
package gw

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"nbody/internal/metrics"
	"nbody/internal/resilience"
)

// replica states as the pool sees them.
const (
	stateHealthy int32 = iota
	stateDraining
	stateDown
)

func stateName(s int32) string {
	switch s {
	case stateDraining:
		return "draining"
	case stateDown:
		return "down"
	default:
		return "healthy"
	}
}

// Replica is one nbodyd backend: its base URL, the pool's view of its
// health, a consecutive-failure circuit breaker shared between the active
// probe and passive request outcomes, and the outstanding-request gauge
// the least-loaded picker reads.
type Replica struct {
	url     string
	breaker *resilience.Breaker
	stats   *metrics.Set[metrics.GatewayStats] // the owning gateway's

	mu         sync.Mutex
	state      int32
	probeFails int

	outstanding int64 // guarded by mu (gauge, not hot)
}

// URL returns the replica's base URL.
func (r *Replica) URL() string { return r.url }

func (r *Replica) setState(s int32) (was int32) {
	r.mu.Lock()
	was = r.state
	r.state = s
	r.mu.Unlock()
	return was
}

func (r *Replica) getState() int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// eligible reports whether new work may route here: probed healthy (not
// draining, not down) and the breaker closed.
func (r *Replica) eligible() bool {
	return r.getState() == stateHealthy && r.breaker.Allow()
}

// acquire/release maintain the outstanding gauge around one proxied
// request.
func (r *Replica) acquire() {
	r.mu.Lock()
	r.outstanding++
	r.mu.Unlock()
}

func (r *Replica) release() {
	r.mu.Lock()
	r.outstanding--
	r.mu.Unlock()
}

func (r *Replica) load() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outstanding
}

// failed records one failed request against the replica. transportDown
// marks connection-level failures (refused, reset, EOF before status):
// the strongest evidence a process is gone, acted on immediately rather
// than waiting DownAfter probes.
func (r *Replica) failed(transportDown bool) {
	if r.breaker.Failure() {
		r.ejected()
	}
	if transportDown && r.setState(stateDown) == stateHealthy {
		r.ejected()
	}
}

func (r *Replica) ejected() {
	r.stats.Update(func(s *metrics.GatewayStats) { s.Ejections++ })
}

// succeeded records one successful request: closes the breaker.
func (r *Replica) succeeded() { r.breaker.Success() }

// ReplicaStatus is one replica's row in the gateway metrics document.
type ReplicaStatus struct {
	URL         string `json:"url"`
	State       string `json:"state"`
	BreakerOpen bool   `json:"breaker_open,omitempty"`
	Outstanding int64  `json:"outstanding"`
}

// Pool owns the replica set and the active health-probe loop.
type Pool struct {
	replicas   []*Replica
	client     *http.Client
	probeEvery time.Duration
	downAfter  int

	mu sync.Mutex
	rr int

	stop chan struct{}
	done chan struct{}
}

// newPool builds the pool; Start begins probing.
func newPool(urls []string, client *http.Client, stats *metrics.Set[metrics.GatewayStats], probeEvery time.Duration, downAfter, breakerThreshold int, breakerCooldown time.Duration) *Pool {
	p := &Pool{
		client:     client,
		probeEvery: probeEvery,
		downAfter:  downAfter,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, u := range urls {
		p.replicas = append(p.replicas, &Replica{
			url:     strings.TrimRight(u, "/"),
			breaker: resilience.NewBreaker(breakerThreshold, breakerCooldown),
			stats:   stats,
		})
	}
	return p
}

// Start probes every replica once synchronously (so the pool opens with a
// real view of the fleet, not optimism), then keeps probing each replica
// independently on the configured cadence until Close.
func (p *Pool) Start() {
	for _, r := range p.replicas {
		p.probe(r)
	}
	var wg sync.WaitGroup
	for _, r := range p.replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			tick := time.NewTicker(p.probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-tick.C:
					p.probe(r)
				}
			}
		}(r)
	}
	go func() {
		wg.Wait()
		close(p.done)
	}()
}

// Close stops the probe loop.
func (p *Pool) Close() {
	close(p.stop)
	<-p.done
}

// probe polls one replica's /v1/healthz and folds the answer into its
// state: "ok" heals (and counts a recovery if it was down), "draining"
// stops routing without counting an ejection (the replica is healthy, it
// just asked for no new work), and DownAfter consecutive failures mark it
// down. The probe timeout is floored at a second: a fast probe cadence
// must not turn scheduling delay on a busy host into a false ejection.
func (p *Pool) probe(r *Replica) {
	timeout := p.probeEvery
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/v1/healthz", http.NoBody)
	if err != nil {
		p.probeFailed(r)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.probeFailed(r)
		return
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body) != nil {
		p.probeFailed(r)
		return
	}
	r.mu.Lock()
	r.probeFails = 0
	was := r.state
	switch body.Status {
	case "draining":
		r.state = stateDraining
	case "ok":
		r.state = stateHealthy
	default:
		r.mu.Unlock()
		p.probeFailed(r)
		return
	}
	now := r.state
	r.mu.Unlock()
	if was == stateDown && now == stateHealthy {
		r.stats.Update(func(s *metrics.GatewayStats) { s.Recoveries++ })
		// The process came back (a restart): the old breaker evidence is
		// about its previous life.
		r.breaker.Success()
	}
}

func (p *Pool) probeFailed(r *Replica) {
	r.mu.Lock()
	r.probeFails++
	trip := r.probeFails >= p.downAfter && r.state != stateDown
	if trip {
		r.state = stateDown
	}
	r.mu.Unlock()
	if trip {
		r.ejected()
	}
}

// Pick returns the eligible replica with the fewest outstanding requests,
// breaking ties in round-robin order, skipping any the caller excludes.
// Returns nil when no replica is eligible.
func (p *Pool) Pick(exclude map[*Replica]bool) *Replica {
	p.mu.Lock()
	start := p.rr
	p.rr = (p.rr + 1) % max(1, len(p.replicas))
	p.mu.Unlock()

	var best *Replica
	var bestLoad int64
	n := len(p.replicas)
	for i := 0; i < n; i++ {
		r := p.replicas[(start+i)%n]
		if exclude[r] || !r.eligible() {
			continue
		}
		if l := r.load(); best == nil || l < bestLoad {
			best, bestLoad = r, l
		}
	}
	return best
}

// PickAny is Pick without the health filter: the last resort when no
// replica is eligible but the request still deserves one attempt (probes
// lag reality in both directions).
func (p *Pool) PickAny(exclude map[*Replica]bool) *Replica {
	p.mu.Lock()
	start := p.rr
	p.rr = (p.rr + 1) % max(1, len(p.replicas))
	p.mu.Unlock()
	var best *Replica
	var bestLoad int64
	n := len(p.replicas)
	for i := 0; i < n; i++ {
		r := p.replicas[(start+i)%n]
		if exclude[r] {
			continue
		}
		if l := r.load(); best == nil || l < bestLoad {
			best, bestLoad = r, l
		}
	}
	return best
}

// Eligible counts currently routable replicas.
func (p *Pool) Eligible() int {
	n := 0
	for _, r := range p.replicas {
		if r.eligible() {
			n++
		}
	}
	return n
}

// Status snapshots every replica for the metrics document.
func (p *Pool) Status() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(p.replicas))
	for _, r := range p.replicas {
		out = append(out, ReplicaStatus{
			URL:         r.url,
			State:       stateName(r.getState()),
			BreakerOpen: r.breaker.Open(),
			Outstanding: r.load(),
		})
	}
	return out
}
