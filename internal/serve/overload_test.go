package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"testing"
	"time"

	"nbody"
	"nbody/internal/plan"
	"nbody/internal/resilience"
)

// TestShedAtAdmission pins the admission-time half of cost-model shedding:
// with the only worker deterministically occupied, a request whose
// estimate cannot fit its deadline is rejected as *ShedError before it
// ever queues, and both the tenant and aggregate counters record it.
func TestShedAtAdmission(t *testing.T) {
	d, err := NewDispatcher(PolicyFIFO, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	go d.Do(context.Background(), "hog", func(context.Context) error {
		close(started)
		<-block
		return nil
	})
	<-started
	defer close(block)

	bud := Budget{Estimate: time.Hour, Deadline: time.Now().Add(50 * time.Millisecond)}
	err = d.DoBudget(context.Background(), "light", bud, func(context.Context) error { return nil })
	if !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("want *ShedError, got %T", err)
	}
	if se.Stale {
		t.Error("admission-time shed marked stale")
	}
	if se.RetryAfter < time.Second {
		t.Errorf("RetryAfter %v below the 1s floor", se.RetryAfter)
	}
	if got := d.Stats().Shed; got != 1 {
		t.Errorf("aggregate Shed = %d, want 1", got)
	}
	if got := d.TenantSnapshot()["light"].Shed; got != 1 {
		t.Errorf("tenant Shed = %d, want 1", got)
	}
}

// TestShedStaleAtDequeue pins the dequeue-time half: a job that was
// admissible when enqueued but whose deadline became unmeetable while it
// aged in queue is dropped by the worker before running, with Stale set.
func TestShedStaleAtDequeue(t *testing.T) {
	d, err := NewDispatcher(PolicyFIFO, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	go d.Do(context.Background(), "hog", func(context.Context) error {
		close(started)
		<-block
		return nil
	})
	<-started

	// Admissible now (estimate 20ms, deadline 60ms, empty queue as far as
	// the cost model knows — the blocking job carried no estimate), but
	// doomed by the time the worker frees up.
	bud := Budget{Estimate: 20 * time.Millisecond, Deadline: time.Now().Add(60 * time.Millisecond)}
	errc := make(chan error, 1)
	go func() {
		errc <- d.DoBudget(context.Background(), "light", bud, func(context.Context) error { return nil })
	}()
	time.Sleep(100 * time.Millisecond) // age the queued job past its deadline
	close(block)

	err = <-errc
	var se *ShedError
	if !errors.As(err, &se) || !se.Stale {
		t.Fatalf("want stale *ShedError, got %v", err)
	}
	if got := d.Stats().ShedStale; got != 1 {
		t.Errorf("aggregate ShedStale = %d, want 1", got)
	}
	// The estimate bookkeeping must return to zero once everything drained.
	d.mu.Lock()
	wait := d.predictedWaitLocked()
	d.mu.Unlock()
	if wait != 0 {
		t.Errorf("predicted wait = %v after drain, want 0", wait)
	}
}

// TestZeroBudgetNeverSheds pins the compatibility contract: without an
// estimate or deadline the dispatcher behaves exactly as before overload
// control — no shedding, regardless of backlog.
func TestZeroBudgetNeverSheds(t *testing.T) {
	d, err := NewDispatcher(PolicyFair, 2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 10; i++ {
		if err := d.Do(context.Background(), "t", func(context.Context) error { return nil }); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	s := d.Stats()
	if s.Shed != 0 || s.ShedStale != 0 {
		t.Fatalf("zero-budget requests shed: %+v", s)
	}
}

// warmSolves is one solve past the two observations of a shape the planner
// needs before it calls that shape's estimate confident.
const warmSolves = 3

// TestShedHTTPRetryAfter drives the whole path over HTTP: warm the
// planner's estimate past its confidence threshold, then send a request whose
// deadline cannot fit the (now confident) estimate and require 429 with
// code shed_deadline and a Retry-After header. Also pins that 429s from
// the plain queue-full path carry Retry-After now.
func TestShedHTTPRetryAfter(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2})
	// Sized so the deadline below is out of reach by an order of magnitude
	// on any host: a solve of a few hundred particles finishes inside a
	// millisecond, and the estimator would then rightly admit it (8192 read
	// 9.6 ms on two avx2 cores once the near field went symmetric — under the
	// ten-deadline premise below six runs in ten).
	sys := nbody.NewUniformSystem(32768, 7)

	// Warm-up: enough successful solves of this exact shape for the
	// estimator to trust its EWMA.
	body := solveBody(t, "light", sys, nil)
	for i := 0; i < warmSolves; i++ {
		resp, data := postSolve(t, hs.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	if ov := srv.readOverload(); ov.EstimatorShapes == 0 {
		t.Fatal("estimator recorded no shapes after warm solves")
	}

	const deadline = time.Millisecond
	tight := solveBody(t, "light", sys, func(r *SolveRequest) { r.DeadlineMS = deadline.Milliseconds() })
	// The premise, checked rather than assumed: what admission will read for
	// this request is a confident estimate at least ten deadlines long.
	req, dsys, err := decodeSolveRequest(bytes.NewReader(tight), srv.limits())
	if err != nil {
		t.Fatal(err)
	}
	key := srv.keyFor(req, dsys.Len(), plan.Fingerprint(dsys.Positions), false)
	if est, confident := srv.Planner().Estimate(key, 1); !confident || est < 10*deadline {
		t.Fatalf("estimate %v (confident=%v) does not rule out a %v deadline; grow the shape", est, confident, deadline)
	}
	resp, data := postSolve(t, hs.URL, tight)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 shed, got %d: %s", resp.StatusCode, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "shed_deadline" && er.Code != "shed_stale" {
		t.Errorf("429 code = %q, want shed_*", er.Code)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	m := srv.ReadMetrics()
	if m.Overload.Counters.Shed == 0 {
		t.Error("/v1/metrics overload.counters.shed not incremented")
	}
	if m.Admission.Shed == 0 {
		t.Error("/v1/metrics admission.shed not incremented")
	}
}

// TestDisableAdmission pins the opt-out: with DisableAdmission the same
// warm-estimator + tight-deadline sequence must never 429 on the shed
// path — the request queues and the deadline surfaces as 504, the
// pre-overload-control behavior the comparison baseline relies on.
func TestDisableAdmission(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, DisableAdmission: true})
	sys := nbody.NewUniformSystem(768, 7)
	body := solveBody(t, "light", sys, nil)
	for i := 0; i < warmSolves; i++ {
		resp, data := postSolve(t, hs.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	tight := solveBody(t, "light", sys, func(r *SolveRequest) { r.DeadlineMS = 1 })
	resp, data := postSolve(t, hs.URL, tight)
	// A warm plan cache can make even a 1ms deadline satisfiable, so either
	// a 200 (it made it) or a 504 (the context deadline fired mid-queue or
	// mid-solve) is legitimate here. What must never appear is the cost
	// model's 429 shed — that path is what DisableAdmission switches off.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("admission disabled: want 200 or 504, got %d: %s", resp.StatusCode, data)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("admission disabled but request was shed: %s", data)
	}
}

// TestApplyBrownout pins the request-rewrite ladder level by level,
// including the no-op cases (already at the floor, depth at or below the
// optimum) that must pass through untagged.
func TestApplyBrownout(t *testing.T) {
	srv, err := New(Config{Workers: 2, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := []struct {
		level        int
		accuracy     string
		depth        int
		wantAccuracy string
		wantDepth    int
		wantDegraded bool
	}{
		{0, "accurate", 5, "accurate", 5, false},
		{1, "accurate", 5, "balanced", 5, true},
		{1, "balanced", 5, "fast", 5, true},
		{1, "fast", 5, "fast", 5, false},
		{2, "accurate", 5, "fast", 3, true}, // over-deep: re-pinned to optimal
		{2, "fast", 3, "fast", 3, false},    // already at the floor
		{2, "fast", 2, "fast", 2, false},    // shallower than optimal: left alone
	}
	for _, tc := range cases {
		srv.brown = newBrownoutAtLevel(t, tc.level)
		req := &SolveRequest{Accuracy: tc.accuracy, Depth: tc.depth}
		level, degraded := srv.applyBrownout(req, 16384, "uniform", false) // planner depth for 16384/fast = 3
		if degraded != tc.wantDegraded || req.Accuracy != tc.wantAccuracy || req.Depth != tc.wantDepth {
			t.Errorf("level %d %s/depth%d -> %s/depth%d degraded=%v (controller level %d), want %s/depth%d degraded=%v",
				tc.level, tc.accuracy, tc.depth, req.Accuracy, req.Depth, degraded, level,
				tc.wantAccuracy, tc.wantDepth, tc.wantDegraded)
		}
	}
}

// TestBrownoutEndToEnd forces the controller to its max level and checks a
// served request comes back tagged degraded with the browned counter
// bumped — then drops the level and checks full fidelity returns.
func TestBrownoutEndToEnd(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2})
	sys := nbody.NewUniformSystem(512, 3)

	srv.brown = newBrownoutAtLevel(t, 2)
	body := solveBody(t, "t", sys, func(r *SolveRequest) { r.Accuracy = "accurate" })
	resp, data := postSolve(t, hs.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded || sr.BrownoutLevel != 2 {
		t.Fatalf("degraded=%v level=%d, want degraded at level 2", sr.Degraded, sr.BrownoutLevel)
	}
	if got := srv.ReadMetrics().Overload.Counters.Browned; got != 1 {
		t.Errorf("browned counter = %d after one degraded response, want 1", got)
	}

	srv.brown = newBrownoutAtLevel(t, 0)
	resp, data = postSolve(t, hs.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	sr = SolveResponse{}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Degraded {
		t.Error("request still degraded after pressure subsided")
	}
}

// TestOverloadedRetryAfterHeader pins the satellite on the pre-existing
// queue-full 429: it now carries Retry-After too.
func TestOverloadedRetryAfterHeader(t *testing.T) {
	srv, err := New(Config{Workers: 2, QueueDepth: 1, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{}, 4)
	// Occupy both workers first, one at a time — the queue holds one job, so
	// two blockers enqueued together race each other into it and the loser
	// bounces (the test then waited for its start for ever, one run in
	// twenty) — and only then enqueue the queue-filling job.
	for i := 0; i < 2; i++ {
		go srv.disp.Do(context.Background(), "t", func(context.Context) error {
			started <- struct{}{}
			<-block
			return nil
		})
		<-started
	}
	go srv.disp.Do(context.Background(), "t", func(context.Context) error {
		<-block
		return nil
	})
	// Wait until the third job actually holds the one queue slot, so the
	// probe below cannot steal it and block on the occupied workers.
	deadline := time.Now().Add(2 * time.Second)
	for srv.disp.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("third job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	err = srv.disp.Do(context.Background(), "t", func(context.Context) error { return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if got := retryAfterFor(err); got != time.Second {
		t.Errorf("retryAfterFor(queue-full) = %v, want the 1s default", got)
	}
}

// newBrownoutAtLevel builds a controller pinned at the given level via a
// fake clock: sustained over-target observations raise it exactly level
// times, and the clock never advances afterwards so it cannot decay.
func newBrownoutAtLevel(t *testing.T, level int) *resilience.Brownout {
	t.Helper()
	now := time.Unix(1, 0)
	b := resilience.NewBrownout(resilience.BrownoutConfig{
		Target:     10 * time.Millisecond,
		MaxLevel:   2,
		RaiseAfter: time.Millisecond,
		DropAfter:  time.Hour,
		Now:        func() time.Time { return now },
	})
	for b.Level() < level {
		b.Observe(time.Second)
		now = now.Add(2 * time.Millisecond)
		b.Observe(time.Second)
	}
	return b
}
