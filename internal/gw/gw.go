package gw

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/bits"
	"net/http"
	"sync"
	"time"

	"nbody/internal/metrics"
	"nbody/internal/serve"
)

// Config configures the gateway. Zero values select the documented
// defaults; only Replicas is required.
type Config struct {
	// Replicas are the nbodyd base URLs the gateway fronts.
	Replicas []string
	// ProbeEvery is the active health-check cadence (default 250ms).
	ProbeEvery time.Duration
	// DownAfter is the consecutive probe failures before a replica is
	// marked down (default 2).
	DownAfter int
	// BreakerThreshold / BreakerCooldown configure the per-replica circuit
	// breaker fed by passive request outcomes (default 3 failures, 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryRate / RetryBurst configure the token-bucket retry budget every
	// failover and hedge draws from (default 20/s, burst 20). The budget is
	// what keeps a fleet-wide incident from turning into a retry storm.
	RetryRate  float64
	RetryBurst float64
	// Hedge enables hedged solve requests: when the primary replica has
	// not answered within hedgeDelay (latency EWMA for the request's size
	// class × HedgeFactor, floored at HedgeMin), a duplicate is sent to a
	// second replica with the same idempotency key and the first answer
	// wins. Only requests up to HedgeMaxN particles hedge — duplicated
	// work must be cheap to be worth buying latency with.
	Hedge       bool
	HedgeMaxN   int           // default 4096
	HedgeFactor float64       // default 3
	HedgeMin    time.Duration // default 20ms
	// StreamRetryWindow is how long a simulate stream may go without any
	// progress (a frame or a checkpoint token from some replica) before
	// the gateway declares it lost (default 30s). Attempts within the
	// window are unlimited — a restarting fleet is reachable again on the
	// probe cadence, and a counter would conflate fast failures with a
	// dead fleet.
	StreamRetryWindow time.Duration
	// MaxBodyBytes caps a proxied request body (default 64 MiB).
	MaxBodyBytes int64
	// Client overrides the upstream HTTP client (tests).
	Client *http.Client
	// Quiet suppresses routing logs.
	Quiet bool
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.ProbeEvery <= 0 {
		d.ProbeEvery = 250 * time.Millisecond
	}
	if d.DownAfter <= 0 {
		d.DownAfter = 2
	}
	if d.BreakerThreshold == 0 {
		d.BreakerThreshold = 3
	}
	if d.BreakerCooldown <= 0 {
		d.BreakerCooldown = 2 * time.Second
	}
	if d.RetryRate <= 0 {
		d.RetryRate = 20
	}
	if d.RetryBurst <= 0 {
		d.RetryBurst = 20
	}
	if d.HedgeMaxN <= 0 {
		d.HedgeMaxN = 4096
	}
	if d.HedgeFactor <= 0 {
		d.HedgeFactor = 3
	}
	if d.HedgeMin <= 0 {
		d.HedgeMin = 20 * time.Millisecond
	}
	if d.StreamRetryWindow <= 0 {
		d.StreamRetryWindow = 30 * time.Second
	}
	if d.MaxBodyBytes <= 0 {
		d.MaxBodyBytes = 64 << 20
	}
	if d.Client == nil {
		d.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	return d
}

// Gateway is the reverse proxy: an http.Handler exposing the same /v1
// surface as one nbodyd, backed by the pool.
type Gateway struct {
	cfg    Config
	pool   *Pool
	client *http.Client
	budget *tokenBucket
	lat    *latencyEWMA
	mux    *http.ServeMux
	// stats are this gateway's event counters, shared by pointer with its
	// pool (ejections, recoveries) and its stream sessions.
	stats metrics.Set[metrics.GatewayStats]
}

// New builds the gateway and synchronously probes every replica once, so
// the first request already routes on real health.
func New(cfg Config) (*Gateway, error) {
	c := cfg.withDefaults()
	if len(c.Replicas) == 0 {
		return nil, fmt.Errorf("gw: no replicas configured")
	}
	g := &Gateway{
		cfg:    c,
		client: c.Client,
		budget: newTokenBucket(c.RetryRate, c.RetryBurst),
		lat:    &latencyEWMA{},
	}
	g.pool = newPool(c.Replicas, g.client, &g.stats, c.ProbeEvery, c.DownAfter, c.BreakerThreshold, c.BreakerCooldown)
	g.pool.Start()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", g.handleSolve)
	mux.HandleFunc("POST /v1/simulate", g.handleSimulate)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", g.handleMetrics)
	g.mux = mux
	return g, nil
}

// Close stops the health-probe loop. In-flight proxied requests are the
// caller's http.Server's to drain.
func (g *Gateway) Close() { g.pool.Close() }

// Pool exposes the replica pool (metrics, tests).
func (g *Gateway) Pool() *Pool { return g.pool }

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

func (g *Gateway) logf(format string, args ...any) {
	if !g.cfg.Quiet {
		log.Printf("gw: "+format, args...)
	}
}

// gwError mirrors serve.ErrorResponse so clients see one error shape
// whether the gateway or a replica produced it.
func writeGWError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

// handleHealthz reports the gateway's own routability: ok while at least
// one replica is eligible, degraded (503) otherwise.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	eligible := g.pool.Eligible()
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if eligible == 0 {
		status = "degraded"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{"status": status, "eligible": eligible})
}

// MetricsDoc is the body of the gateway's GET /v1/metrics.
type MetricsDoc struct {
	Replicas    []ReplicaStatus      `json:"replicas"`
	Gateway     metrics.GatewayStats `json:"gateway"`
	RetryTokens float64              `json:"retry_tokens"`
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := MetricsDoc{
		Replicas:    g.pool.Status(),
		Gateway:     g.stats.Read(),
		RetryTokens: g.budget.available(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// ---- solve proxy ----

// solveOutcome is one leg's classified result. commit means resp is an
// answer to forward (anything that is not failover-class); otherwise the
// leg failed with either a transport error (err) or a buffered
// failover-class response (status/header/errBody).
type solveOutcome struct {
	rep     *Replica
	resp    *http.Response // open; forwardResponse closes + releases
	commit  bool
	status  int
	header  http.Header
	errBody []byte
	err     error
}

// failoverClass reports whether a status is worth retrying on another
// replica: internal errors and unavailability. 4xx (the request is wrong
// everywhere), 429 (backpressure the client must heed), and 504 (the
// deadline is already spent) all forward as-is.
func failoverClass(status int) bool {
	return status == http.StatusInternalServerError ||
		status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable
}

func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadBody(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		writeGWError(w, http.StatusRequestEntityTooLarge, "too_large", "request body exceeds gateway cap")
		return
	}
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey == "" {
		// The gateway stamps its own key so its retries and hedges are
		// idempotent even for clients that never heard of the header.
		idemKey = newIdemKey()
	}
	n, hedge := g.hedgeApplies(body)
	ctx := r.Context()

	tried := make(map[*Replica]bool, len(g.pool.replicas))
	var last *solveOutcome
	for attempt := 0; attempt <= len(g.pool.replicas); attempt++ {
		rep := g.pool.Pick(tried)
		if rep == nil {
			// Probes and breakers lag reality in both directions: with
			// nothing eligible but untried replicas left, a blind attempt
			// (still budgeted past the first) beats a reflexive 503.
			rep = g.pool.PickAny(tried)
		}
		if rep == nil {
			break
		}
		tried[rep] = true
		var out *solveOutcome
		var cleanup func()
		if attempt == 0 && hedge {
			out, cleanup = g.raceSolve(ctx, rep, body, idemKey, n, tried)
		} else {
			out = g.sendSolve(ctx, rep, body, idemKey, n)
		}
		if out.commit {
			g.forwardResponse(w, out)
			if cleanup != nil {
				cleanup()
			}
			return
		}
		if cleanup != nil {
			cleanup()
		}
		last = out
		if ctx.Err() != nil {
			break
		}
		if !g.budget.take(1) {
			g.logf("retry budget exhausted, forwarding failure for %s", rep.url)
			break
		}
		g.stats.Update(func(s *metrics.GatewayStats) { s.Failovers++ })
		g.logf("solve failover from %s (%v)", rep.url, outcomeReason(out))
	}
	g.forwardFailure(w, last)
}

func outcomeReason(o *solveOutcome) string {
	if o.err != nil {
		return o.err.Error()
	}
	return fmt.Sprintf("status %d", o.status)
}

// forwardFailure surfaces the terminal failure: the last upstream error
// response verbatim when there is one, a gateway 503 otherwise.
func (g *Gateway) forwardFailure(w http.ResponseWriter, last *solveOutcome) {
	if last != nil && last.status != 0 {
		copyHeaders(w.Header(), last.header)
		if last.status == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(last.status)
		w.Write(last.errBody)
		return
	}
	writeGWError(w, http.StatusServiceUnavailable, "no_replica", "no replica available")
}

// sendSolve runs one leg: one POST /v1/solve against one replica, with
// passive health accounting folded into the classification.
func (g *Gateway) sendSolve(ctx context.Context, rep *Replica, body []byte, idemKey string, n int) *solveOutcome {
	rep.acquire()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		rep.release()
		return &solveOutcome{rep: rep, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", idemKey)
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		rep.release()
		if ctx.Err() == nil {
			// A connection-level failure with a live caller context is the
			// replica's fault; treat it as evidence the process is gone.
			rep.failed(true)
		}
		return &solveOutcome{rep: rep, err: err}
	}
	if failoverClass(resp.StatusCode) {
		errBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		rep.release()
		if resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(errBody, []byte(`"draining"`)) {
			// Draining is cooperative, not a failure: stop routing there
			// without charging the breaker.
			rep.setState(stateDraining)
		} else {
			rep.failed(false)
		}
		return &solveOutcome{rep: rep, status: resp.StatusCode, header: resp.Header.Clone(), errBody: errBody}
	}
	rep.succeeded()
	if resp.StatusCode < 300 {
		g.lat.observe(n, time.Since(start))
	}
	return &solveOutcome{rep: rep, resp: resp, commit: true}
}

// hedgeApplies sizes the request and reports whether its first attempt
// should be hedged. The size has no reader but the hedge gate and the hedge
// delay's latency classes, so with hedging off the body is never scanned and
// the size reads 0 (which the latency EWMA ignores).
func (g *Gateway) hedgeApplies(body []byte) (n int, hedge bool) {
	if !g.cfg.Hedge {
		return 0, false
	}
	n = particleCount(body)
	return n, n > 0 && n <= g.cfg.HedgeMaxN && g.pool.Eligible() >= 2
}

// raceSolve runs the primary leg and, if it has not answered within the
// hedge delay, a duplicate on a second replica; the first committed answer
// wins and the loser is canceled. The returned cleanup cancels both leg
// contexts and must run after the winner has been forwarded.
func (g *Gateway) raceSolve(ctx context.Context, primary *Replica, body []byte, idemKey string, n int, tried map[*Replica]bool) (*solveOutcome, func()) {
	pctx, pcancel := context.WithCancel(ctx)
	hctx, hcancel := context.WithCancel(ctx)
	cleanup := func() { pcancel(); hcancel() }

	ch := make(chan *solveOutcome, 2)
	go func() { ch <- g.sendSolve(pctx, primary, body, idemKey, n) }()

	timer := time.NewTimer(g.lat.delay(n, g.cfg.HedgeFactor, g.cfg.HedgeMin))
	defer timer.Stop()

	hedged := false
	var first *solveOutcome
	select {
	case first = <-ch:
	case <-timer.C:
		second := g.pool.Pick(map[*Replica]bool{primary: true})
		if second != nil && g.budget.take(1) {
			hedged = true
			tried[second] = true
			g.stats.Update(func(s *metrics.GatewayStats) { s.HedgesFired++ })
			go func() { ch <- g.sendSolve(hctx, second, body, idemKey, n) }()
		}
		first = <-ch
	}
	if !hedged {
		return first, cleanup
	}
	winner := first
	if !winner.commit {
		// The first leg back failed; the race is now just the other leg.
		winner = <-ch
		if winner.commit {
			g.noteHedgeResult(winner, primary)
		}
		return winner, cleanup
	}
	g.noteHedgeResult(winner, primary)
	// Cancel and drain the loser so its connection and outstanding slot are
	// returned even though nobody is waiting on it.
	loserCancel := pcancel
	if winner.rep == primary {
		loserCancel = hcancel
	}
	loserCancel()
	go func() {
		if o := <-ch; o != nil && o.resp != nil {
			o.resp.Body.Close()
			o.rep.release()
		}
	}()
	return winner, func() { pcancel(); hcancel() }
}

func (g *Gateway) noteHedgeResult(winner *solveOutcome, primary *Replica) {
	g.stats.Update(func(s *metrics.GatewayStats) {
		if winner.rep == primary {
			s.HedgesLost++
		} else {
			s.HedgesWon++
		}
	})
}

// forwardResponse streams the committed upstream answer to the client.
func (g *Gateway) forwardResponse(w http.ResponseWriter, out *solveOutcome) {
	defer out.rep.release()
	defer out.resp.Body.Close()
	copyHeaders(w.Header(), out.resp.Header)
	w.Header().Set("X-GW-Replica", out.rep.url)
	w.WriteHeader(out.resp.StatusCode)
	io.Copy(w, out.resp.Body)
}

// copyHeaders copies end-to-end headers (Go's client already strips
// hop-by-hop ones; Content-Length is recomputed by the server).
func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Content-Length":
			continue
		}
		dst[k] = append([]string(nil), vs...)
	}
}

// particleCount sizes a solve body for the hedge gate and the hedge delay's
// latency classes without parsing it: every position triple opens one
// bracket, and the positions and charges arrays open two more — the count
// serve's scanner sizes its triples by. A '[' inside a tenant string makes
// it an overestimate, which only misplaces the request's size class.
func particleCount(body []byte) int {
	return max(0, bytes.Count(body, []byte{'['})-2)
}

// newIdemKey returns a fresh random idempotency key.
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// constant-free but weaker key source is not worth it — panic loud.
		panic(fmt.Sprintf("gw: crypto/rand: %v", err))
	}
	return "gw-" + hex.EncodeToString(b[:])
}

// ---- retry budget ----

// tokenBucket is the retry budget: rate tokens/second up to burst. Every
// failover retry and every hedge costs one token, so a dead fleet degrades
// to pass-through errors instead of a retry storm.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	rate   float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{tokens: burst, burst: burst, rate: rate, last: time.Now()}
}

func (b *tokenBucket) refill(now time.Time) {
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

func (b *tokenBucket) take(n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(time.Now())
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

func (b *tokenBucket) available() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(time.Now())
	return b.tokens
}

// ---- latency estimator ----

// latencyEWMA keeps a per-size-class (log2 of particle count) EWMA of
// successful solve latencies; the hedge delay is this estimate times
// HedgeFactor, so hedges fire only when the primary is genuinely late for
// its class, not merely slower than some global average.
type latencyEWMA struct {
	mu      sync.Mutex
	buckets [40]float64 // ns, index = bits.Len(n)
}

func (l *latencyEWMA) observe(n int, d time.Duration) {
	if n <= 0 {
		return
	}
	b := bits.Len(uint(n))
	l.mu.Lock()
	if v := l.buckets[b]; v == 0 {
		l.buckets[b] = float64(d)
	} else {
		l.buckets[b] = 0.8*v + 0.2*float64(d)
	}
	l.mu.Unlock()
}

func (l *latencyEWMA) delay(n int, factor float64, floor time.Duration) time.Duration {
	b := bits.Len(uint(max(n, 1)))
	l.mu.Lock()
	v := l.buckets[b]
	l.mu.Unlock()
	if v == 0 {
		// No evidence for this class yet: hedge late rather than eagerly.
		return 2 * floor
	}
	d := time.Duration(v * factor)
	if d < floor {
		return floor
	}
	return d
}
