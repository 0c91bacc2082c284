// Package loadgen is the load harness for the nbodyd server. Two arrival
// models are supported per tenant:
//
//   - closed loop (the default): Concurrency workers each issue one
//     request, wait for the response, think, and repeat — offered load
//     adapts to server latency, which measures steady-state economics but
//     can never overload the server (the classical closed-loop blind spot).
//   - open loop (RateRPS > 0): arrivals fire from a fixed-rate clock no
//     matter how slow responses are, bounded only by MaxOutstanding
//     in-flight requests — the model that actually generates overload, and
//     the one the admission/brownout comparison needs.
//
// Tenants carry a shape mix (several problem sizes in rotation) and
// optionally a chaos mode (slow-loris request bodies, mid-stream
// disconnects) for the fault-injection soak. The harness reports exact
// client-side percentiles and goodput per tenant and overall — including
// shed/degraded/late counts — plus the server's own metrics document, for
// the comparison tables in EXPERIMENTS.md.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbody"
	"nbody/internal/serve"
)

// debugf prints per-request failure detail when LOADGEN_DEBUG is set —
// the harness normally only counts errors, which is the right default for
// chaos runs (whose tenants fail on purpose) but useless when a fleet test
// needs to know what the one unexpected error actually was.
func debugf(format string, args ...any) {
	if os.Getenv("LOADGEN_DEBUG") == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
}

// Shape is one problem shape a tenant requests: the plan-cache key from
// the client's point of view.
type Shape struct {
	N          int
	Depth      int    // 0 = server-side auto
	Accuracy   string // "" = fast
	Supernodes bool
}

// Chaos modes a tenant can run instead of well-formed traffic.
const (
	// ChaosSlowLoris dribbles each request body out a few bytes at a time,
	// holding the server's decode path open — the classic slow-client
	// attack on anything that reads before admitting.
	ChaosSlowLoris = "slowloris"
	// ChaosDisconnect starts a /v1/simulate NDJSON stream and hangs up
	// after the first frame, exercising mid-stream client-abort handling.
	ChaosDisconnect = "disconnect"
)

// Tenant is one synthetic tenant. Concurrency closed-loop workers cycle
// through Shapes with Think pause between requests; RateRPS > 0 switches
// the tenant to open-loop arrivals at that rate instead.
type Tenant struct {
	Name        string
	Concurrency int
	Think       time.Duration
	Shapes      []Shape
	// DeadlineMS is attached to every request when > 0.
	DeadlineMS int64
	// RateRPS selects open-loop arrivals at this rate (requests/second);
	// 0 keeps the closed loop.
	RateRPS float64
	// MaxOutstanding bounds open-loop in-flight requests (default 256);
	// arrivals past the bound are counted Dropped, not sent — a client
	// that gives up, which is what a real open population does.
	MaxOutstanding int
	// Chaos, when set, replaces well-formed traffic with the named chaos
	// mode (ChaosSlowLoris | ChaosDisconnect).
	Chaos string
}

// Config drives one harness run against a live server.
type Config struct {
	BaseURL  string
	Duration time.Duration
	Tenants  []Tenant
	// Seed makes the generated particle systems and shape rotation
	// deterministic (default 1).
	Seed int64
	// Client overrides the HTTP client (default: pooled transport, no
	// client-side timeout — deadlines belong to the request).
	Client *http.Client
}

// Bucket accumulates one scope's (tenant or total) outcome counts and
// latencies. Counters are updated atomically: many workers share a bucket.
type Bucket struct {
	Sent      int64
	OK        int64
	Rejected  int64 // all 429
	Shed      int64 // the cost-model subset of 429 (code shed_*)
	Deadline  int64 // 504
	BadReq    int64 // other 4xx
	Err5xx    int64
	OtherErr  int64 // transport errors, unexpected statuses
	CacheHits int64 // of OK responses
	Degraded  int64 // OK responses served browned-out
	LateOK    int64 // OK responses whose queue+solve exceeded their deadline
	Dropped   int64 // open-loop arrivals skipped at MaxOutstanding

	mu        sync.Mutex
	latencies []time.Duration
}

func (b *Bucket) record(d time.Duration) {
	b.mu.Lock()
	b.latencies = append(b.latencies, d)
	b.mu.Unlock()
}

func bump(field func(*Bucket) *int64, buckets []*Bucket) {
	for _, b := range buckets {
		atomic.AddInt64(field(b), 1)
	}
}

// Percentiles returns p50/p95/p99/mean/max over the recorded successful
// latencies.
func (b *Bucket) Percentiles() (p50, p95, p99, mean, max time.Duration) {
	b.mu.Lock()
	ls := append([]time.Duration(nil), b.latencies...)
	b.mu.Unlock()
	if len(ls) == 0 {
		return
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	var sum time.Duration
	for _, l := range ls {
		sum += l
	}
	return serve.Percentile(ls, 50), serve.Percentile(ls, 95), serve.Percentile(ls, 99),
		sum / time.Duration(len(ls)), ls[len(ls)-1]
}

// Result is one harness run's outcome.
type Result struct {
	Policy   string // annotated by the caller for comparison tables
	Duration time.Duration
	Total    Bucket
	Tenants  map[string]*Bucket
	// Server holds the server's own /v1/metrics document read at the end
	// of the run (plan-cache hit economics, admission counters).
	Server serve.Metrics
}

// GoodputRPS is successfully served requests per second of wall time.
func (r *Result) GoodputRPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Total.OK) / r.Duration.Seconds()
}

// Run drives the configured tenants against the server until Duration
// elapses (or ctx fires), then reads the server's metrics document.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("loadgen: at least one tenant required")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}

	res := &Result{Duration: cfg.Duration, Tenants: make(map[string]*Bucket)}
	bodies := newBodyCache(cfg.Seed)
	for _, t := range cfg.Tenants {
		res.Tenants[t.Name] = &Bucket{}
		// Pre-build every shape's request body once: workers then reuse
		// the bytes, so the measured latency is queue+solve, not JSON
		// marshaling of the same system over and over.
		for _, sh := range t.Shapes {
			if _, err := bodies.get(t, sh); err != nil {
				return nil, err
			}
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var wg sync.WaitGroup
	for _, t := range cfg.Tenants {
		t := t
		tb := res.Tenants[t.Name]
		switch {
		case t.Chaos != "":
			conc := t.Concurrency
			if conc < 1 {
				conc = 1
			}
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					chaosLoop(runCtx, client, cfg, t, worker, bodies, tb, &res.Total)
				}(w)
			}
		case t.RateRPS > 0:
			wg.Add(1)
			go func() {
				defer wg.Done()
				openLoop(runCtx, client, cfg, t, bodies, tb, &res.Total)
			}()
		default:
			if t.Concurrency < 1 {
				t.Concurrency = 1
			}
			for w := 0; w < t.Concurrency; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					closedLoop(runCtx, client, cfg, t, worker, bodies, tb, &res.Total)
				}(w)
			}
		}
	}
	wg.Wait()
	client.CloseIdleConnections()

	// The run is over; fetch the server's own accounting.
	mresp, err := http.Get(strings.TrimRight(cfg.BaseURL, "/") + "/v1/metrics")
	if err == nil {
		_ = json.NewDecoder(mresp.Body).Decode(&res.Server)
		mresp.Body.Close()
	}
	return res, nil
}

// closedLoop is one classical closed-loop worker: request, wait, think.
func closedLoop(runCtx context.Context, client *http.Client, cfg Config, t Tenant, worker int, bodies *bodyCache, tb, total *Bucket) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)*7919 + int64(len(t.Name))))
	for i := 0; runCtx.Err() == nil; i++ {
		sh := t.Shapes[(worker+i)%len(t.Shapes)]
		body, _ := bodies.get(t, sh)
		oneRequest(runCtx, client, cfg.BaseURL, body, t.DeadlineMS, tb, total)
		if t.Think > 0 {
			jitter := time.Duration(rng.Int63n(int64(t.Think)/2 + 1))
			select {
			case <-runCtx.Done():
			case <-time.After(t.Think + jitter):
			}
		}
	}
}

// openLoop fires arrivals from a fixed-rate clock regardless of response
// latency: the arrival model under which offered load can actually exceed
// capacity, which is what the overload-control comparison has to measure.
// Up to MaxOutstanding requests run concurrently; arrivals past the bound
// are dropped (and counted), modeling clients that give up rather than an
// unbounded client-side queue that would just move the backlog problem.
func openLoop(runCtx context.Context, client *http.Client, cfg Config, t Tenant, bodies *bodyCache, tb, total *Bucket) {
	maxOut := t.MaxOutstanding
	if maxOut < 1 {
		maxOut = 256
	}
	interval := time.Duration(float64(time.Second) / t.RateRPS)
	if interval <= 0 {
		interval = time.Millisecond
	}
	sem := make(chan struct{}, maxOut)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var inner sync.WaitGroup
	defer inner.Wait()
	for i := 0; ; i++ {
		select {
		case <-runCtx.Done():
			return
		case <-ticker.C:
		}
		sh := t.Shapes[i%len(t.Shapes)]
		body, _ := bodies.get(t, sh)
		select {
		case sem <- struct{}{}:
			inner.Add(1)
			go func() {
				defer inner.Done()
				defer func() { <-sem }()
				oneRequest(runCtx, client, cfg.BaseURL, body, t.DeadlineMS, tb, total)
			}()
		default:
			bump(func(b *Bucket) *int64 { return &b.Dropped }, []*Bucket{tb, total})
		}
	}
}

// chaosLoop drives one misbehaving client in the tenant's chaos mode.
func chaosLoop(runCtx context.Context, client *http.Client, cfg Config, t Tenant, worker int, bodies *bodyCache, tb, total *Bucket) {
	for i := 0; runCtx.Err() == nil; i++ {
		sh := t.Shapes[(worker+i)%len(t.Shapes)]
		switch t.Chaos {
		case ChaosDisconnect:
			body, err := bodies.getSim(t, sh)
			if err != nil {
				return
			}
			disconnectRequest(runCtx, client, cfg.BaseURL, body, tb, total)
		default: // ChaosSlowLoris
			body, _ := bodies.get(t, sh)
			slowLorisRequest(runCtx, client, cfg.BaseURL, body, tb, total)
		}
		if t.Think > 0 {
			select {
			case <-runCtx.Done():
			case <-time.After(t.Think):
			}
		}
	}
}

// oneRequest issues one solve and accounts it in both buckets.
func oneRequest(ctx context.Context, client *http.Client, base string, body []byte, deadlineMS int64, buckets ...*Bucket) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(base, "/")+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		bump(func(b *Bucket) *int64 { return &b.OtherErr }, buckets)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	elapsed := time.Since(start)
	bump(func(b *Bucket) *int64 { return &b.Sent }, buckets)
	if err != nil {
		// A request cut off by the run deadline is not a server failure.
		if ctx.Err() == nil {
			debugf("solve transport error: %v", err)
			bump(func(b *Bucket) *int64 { return &b.OtherErr }, buckets)
		}
		return
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		var sr serve.SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			// The run deadline can fire mid-body just as it can mid-dial:
			// neither is a server failure.
			if ctx.Err() == nil {
				debugf("solve 200 body decode error: %v", err)
				bump(func(b *Bucket) *int64 { return &b.OtherErr }, buckets)
			}
			return
		}
		bump(func(b *Bucket) *int64 { return &b.OK }, buckets)
		if sr.CacheHit {
			bump(func(b *Bucket) *int64 { return &b.CacheHits }, buckets)
		}
		if sr.Degraded {
			bump(func(b *Bucket) *int64 { return &b.Degraded }, buckets)
		}
		if deadlineMS > 0 && sr.QueueNS+sr.SolveNS > deadlineMS*int64(time.Millisecond) {
			bump(func(b *Bucket) *int64 { return &b.LateOK }, buckets)
		}
		for _, b := range buckets {
			b.record(elapsed)
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		var er serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		io.Copy(io.Discard, resp.Body)
		bump(func(b *Bucket) *int64 { return &b.Rejected }, buckets)
		if strings.HasPrefix(er.Code, "shed") {
			bump(func(b *Bucket) *int64 { return &b.Shed }, buckets)
		}
	case resp.StatusCode == http.StatusGatewayTimeout:
		io.Copy(io.Discard, resp.Body)
		bump(func(b *Bucket) *int64 { return &b.Deadline }, buckets)
	case resp.StatusCode >= 500:
		io.Copy(io.Discard, resp.Body)
		bump(func(b *Bucket) *int64 { return &b.Err5xx }, buckets)
	case resp.StatusCode >= 400:
		io.Copy(io.Discard, resp.Body)
		bump(func(b *Bucket) *int64 { return &b.BadReq }, buckets)
	default:
		io.Copy(io.Discard, resp.Body)
		bump(func(b *Bucket) *int64 { return &b.OtherErr }, buckets)
	}
}

// slowLorisRequest dribbles the request body out ~64 chunks with a pause
// between each: the server's decode path sees a connection that is alive
// but barely sending. Whatever status comes back is accounted; the point
// of the mode is what it does to everyone else's latency.
func slowLorisRequest(ctx context.Context, client *http.Client, base string, body []byte, buckets ...*Bucket) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(base, "/")+"/v1/solve", pr)
	if err != nil {
		bump(func(b *Bucket) *int64 { return &b.OtherErr }, buckets)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	chunk := len(body)/64 + 1
	go func() {
		for off := 0; off < len(body); off += chunk {
			end := off + chunk
			if end > len(body) {
				end = len(body)
			}
			if _, err := pw.Write(body[off:end]); err != nil {
				return
			}
			select {
			case <-ctx.Done():
				pw.CloseWithError(ctx.Err())
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		pw.Close()
	}()
	bump(func(b *Bucket) *int64 { return &b.Sent }, buckets)
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			bump(func(b *Bucket) *int64 { return &b.OtherErr }, buckets)
		}
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		bump(func(b *Bucket) *int64 { return &b.OK }, buckets)
	case resp.StatusCode == http.StatusTooManyRequests:
		bump(func(b *Bucket) *int64 { return &b.Rejected }, buckets)
	case resp.StatusCode >= 500:
		bump(func(b *Bucket) *int64 { return &b.Err5xx }, buckets)
	default:
		bump(func(b *Bucket) *int64 { return &b.BadReq }, buckets)
	}
}

// disconnectRequest starts an NDJSON simulate stream and hangs up after the
// first frame line: the mid-stream client abort every streaming endpoint
// must absorb without leaking the worker or the plan checkout.
func disconnectRequest(ctx context.Context, client *http.Client, base string, body []byte, buckets ...*Bucket) {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		strings.TrimRight(base, "/")+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		bump(func(b *Bucket) *int64 { return &b.OtherErr }, buckets)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	bump(func(b *Bucket) *int64 { return &b.Sent }, buckets)
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			bump(func(b *Bucket) *int64 { return &b.OtherErr }, buckets)
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			bump(func(b *Bucket) *int64 { return &b.Rejected }, buckets)
		case resp.StatusCode >= 500:
			bump(func(b *Bucket) *int64 { return &b.Err5xx }, buckets)
		default:
			bump(func(b *Bucket) *int64 { return &b.BadReq }, buckets)
		}
		return
	}
	// Read exactly one frame, then hang up mid-stream.
	br := bufio.NewReader(resp.Body)
	_, _ = br.ReadString('\n')
	cancel()
	bump(func(b *Bucket) *int64 { return &b.OK }, buckets)
}

// bodyCache builds and memoizes one marshaled request body per
// (tenant, shape): the same deterministic particle system every time, so
// equal shapes across tenants still map to distinct tenants' queues but
// identical solver work, and repeated requests are bitwise-identical
// (the plan-reuse reproducibility contract the tests pin).
type bodyCache struct {
	seed int64
	mu   sync.Mutex
	m    map[string][]byte
}

func newBodyCache(seed int64) *bodyCache {
	return &bodyCache{seed: seed, m: make(map[string][]byte)}
}

func (c *bodyCache) solveRequest(t Tenant, sh Shape) (serve.SolveRequest, error) {
	if sh.N < 1 {
		return serve.SolveRequest{}, fmt.Errorf("loadgen: shape with N=%d", sh.N)
	}
	sys := nbody.NewUniformSystem(sh.N, c.seed)
	req := serve.SolveRequest{
		Tenant:     t.Name,
		Positions:  make([][3]float64, sh.N),
		Charges:    sys.Charges,
		Accuracy:   sh.Accuracy,
		Depth:      sh.Depth,
		Supernodes: sh.Supernodes,
		DeadlineMS: t.DeadlineMS,
	}
	for i, p := range sys.Positions {
		req.Positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return req, nil
}

func (c *bodyCache) get(t Tenant, sh Shape) ([]byte, error) {
	key := fmt.Sprintf("%s/%d/%d/%s/%v/%d", t.Name, sh.N, sh.Depth, sh.Accuracy, sh.Supernodes, t.DeadlineMS)
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.m[key]; ok {
		return b, nil
	}
	req, err := c.solveRequest(t, sh)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	c.m[key] = b
	return b, nil
}

// getSim is get for the streaming endpoint: the same shape wrapped in a
// short integration, what the disconnect chaos mode aborts.
func (c *bodyCache) getSim(t Tenant, sh Shape) ([]byte, error) {
	key := fmt.Sprintf("sim/%s/%d/%d/%s/%v/%d", t.Name, sh.N, sh.Depth, sh.Accuracy, sh.Supernodes, t.DeadlineMS)
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.m[key]; ok {
		return b, nil
	}
	solve, err := c.solveRequest(t, sh)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(serve.SimulateRequest{SolveRequest: solve, Steps: 8, DT: 1e-4, StreamEvery: 1})
	if err != nil {
		return nil, err
	}
	c.m[key] = b
	return b, nil
}

// TableHeader and TableRow render the markdown comparison table the
// experiments record.
func TableHeader() string {
	return "| run | sent | ok | shed | 429 | 504 | 5xx | degraded | late | p50 ms | p95 ms | p99 ms | goodput req/s | cache hit % |\n" +
		"|---|---|---|---|---|---|---|---|---|---|---|---|---|---|"
}

// TableRow renders one run as a markdown table row.
func (r *Result) TableRow() string {
	p50, p95, p99, _, _ := r.Total.Percentiles()
	hitPct := 0.0
	if r.Total.OK > 0 {
		hitPct = 100 * float64(r.Total.CacheHits) / float64(r.Total.OK)
	}
	return fmt.Sprintf("| %s | %d | %d | %d | %d | %d | %d | %d | %d | %.1f | %.1f | %.1f | %.1f | %.1f |",
		r.Policy, r.Total.Sent, r.Total.OK, r.Total.Shed, r.Total.Rejected, r.Total.Deadline, r.Total.Err5xx,
		r.Total.Degraded, r.Total.LateOK,
		msF(p50), msF(p95), msF(p99), r.GoodputRPS(), hitPct)
}

// Summary renders the per-tenant breakdown plus the plan-cache economics.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run=%s duration=%s goodput=%.1f req/s\n", r.Policy, r.Duration, r.GoodputRPS())
	names := make([]string, 0, len(r.Tenants))
	for name := range r.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tb := r.Tenants[name]
		p50, p95, p99, _, _ := tb.Percentiles()
		fmt.Fprintf(&b, "  tenant %-10s sent=%-5d ok=%-5d shed=%-4d 429=%-4d 504=%-3d 5xx=%-3d degr=%-4d late=%-3d drop=%-4d p50=%.1fms p95=%.1fms p99=%.1fms\n",
			name, tb.Sent, tb.OK, tb.Shed, tb.Rejected, tb.Deadline, tb.Err5xx, tb.Degraded, tb.LateOK, tb.Dropped,
			msF(p50), msF(p95), msF(p99))
	}
	pc := r.Server.PlanCache
	if pc.Hits+pc.Misses > 0 {
		coldMS, warmUS := 0.0, 0.0
		if pc.Misses > 0 {
			coldMS = float64(pc.BuildNS) / float64(pc.Misses) / 1e6
		}
		if pc.Hits > 0 {
			warmUS = float64(pc.HitNS) / float64(pc.Hits) / 1e3
		}
		fmt.Fprintf(&b, "  plan cache: %d hits, %d misses, %d evictions; cold build %.2f ms avg, warm acquire %.1f us avg\n",
			pc.Hits, pc.Misses, pc.Evictions, coldMS, warmUS)
	}
	ov := r.Server.Overload
	if c := ov.Counters; c.Shed+c.ShedStale+c.Browned+c.BrownoutRaises > 0 {
		fmt.Fprintf(&b, "  overload: %d shed, %d stale drops, %d browned (level %d now, %d raises/%d drops), backlog %.1fms\n",
			c.Shed, c.ShedStale, c.Browned, ov.Brownout.Level, ov.Brownout.Raises, ov.Brownout.Drops,
			r.Server.Admission.BacklogMS)
	}
	return b.String()
}

func msF(d time.Duration) float64 { return float64(d) / 1e6 }
