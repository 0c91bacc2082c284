package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"nbody"
	"nbody/internal/faults"
	"nbody/internal/metrics"
	"nbody/internal/testutil"
)

// TestTwoServersCountTheirOwnEvents runs two servers in one process, makes
// every kind of counted event happen on A only — a deadline shed, a
// brownout-degraded reply, a healed solve, a checkpointing stream — while B
// serves clean traffic, and requires B's /v1/metrics to show none of it.
func TestTwoServersCountTheirOwnEvents(t *testing.T) {
	a, hsA := newTestServer(t, Config{Workers: 2})
	b, hsB := newTestServer(t, Config{Workers: 2})
	defer faults.Reset()
	sys := nbody.NewUniformSystem(256, 41)
	body := solveBody(t, "t", sys, nil)

	// Deadline shed on A: an hour of predicted work against a deadline a
	// millisecond away cannot be admitted, whatever the scheduler does.
	err := a.disp.DoBudget(context.Background(), "t",
		Budget{Estimate: time.Hour, Deadline: time.Now().Add(time.Millisecond)},
		func(context.Context) error { t.Error("shed request ran"); return nil })
	if !errors.Is(err, ErrShed) {
		t.Fatalf("DoBudget = %v, want a shed", err)
	}

	// A solve on A healed by one retry.
	if resp, data := postSolve(t, hsA.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("A warmup: %d %s", resp.StatusCode, data)
	}
	faults.InjectPanicN("core/T2", "injected by TestTwoServersCountTheirOwnEvents", 1)
	if resp, data := postSolve(t, hsA.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("A healed solve: %d %s", resp.StatusCode, data)
	}
	faults.Reset()

	// A stream on A that writes a resume token on every frame.
	simBody := strings.Replace(string(body), `{`, `{"steps":3,"dt":1e-5,"stream_every":1,"checkpoint_every":1,`, 1)
	sresp, err := http.Post(hsA.URL+"/v1/simulate", "application/json", strings.NewReader(simBody))
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || !strings.Contains(string(stream), `"final":true`) {
		t.Fatalf("A stream: %d %.200s", sresp.StatusCode, stream)
	}

	// Brownout-degraded reply on A (last: the raised controller stays).
	a.brown = newBrownoutAtLevel(t, 2)
	resp, data := postSolve(t, hsA.URL, solveBody(t, "t", sys, func(r *SolveRequest) { r.Accuracy = "accurate" }))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"degraded":true`) {
		t.Fatalf("A degraded solve: %d %.200s", resp.StatusCode, data)
	}

	// Clean traffic on B.
	if resp, data := postSolve(t, hsB.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("B solve: %d %s", resp.StatusCode, data)
	}

	ma, mb := a.ReadMetrics(), b.ReadMetrics()
	if c := ma.Overload.Counters; c.Shed != 1 || c.Browned != 1 || c.BrownoutRaises == 0 {
		t.Errorf("A overload counters = %+v, want 1 shed, 1 browned, raises > 0", c)
	}
	if r := ma.Recovery; r.Retries != 1 || r.Checkpoints == 0 {
		t.Errorf("A recovery = %+v, want 1 retry and the stream's checkpoints", r)
	}
	if mb.Overload.Counters != (metrics.OverloadStats{}) {
		t.Errorf("B overload counters = %+v, want all zero: A's events leaked", mb.Overload.Counters)
	}
	if !mb.Recovery.Zero() {
		t.Errorf("B recovery = %+v, want all zero: A's events leaked", mb.Recovery)
	}
}

// TestMetricsKeySetGolden pins the field names of GET /v1/metrics as wire
// protocol: dashboards, the load harness and the benchmark read them.
// (tenants and per-status keys are data, not schema: a fresh server has
// none.)
func TestMetricsKeySetGolden(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, PlanStore: t.TempDir() + "/plans.nbp"})
	resp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := []string{
		"admission.admitted", "admission.backlog_ms", "admission.canceled", "admission.completed",
		"admission.in_flight", "admission.queued", "admission.rejected", "admission.shed", "admission.shed_stale",
		"backend",
		"idempotency.bytes", "idempotency.entries",
		"latency.count", "latency.max_ms", "latency.p50_ms", "latency.p95_ms", "latency.p99_ms", "latency.window",
		"overload.admission_enabled",
		"overload.brownout.drops", "overload.brownout.level", "overload.brownout.pressure_ns", "overload.brownout.raises",
		"overload.brownout_enabled",
		"overload.counters.browned", "overload.counters.brownout_drops", "overload.counters.brownout_raises",
		"overload.counters.shed", "overload.counters.shed_stale",
		"overload.estimator_obs", "overload.estimator_scale", "overload.estimator_shapes",
		"plan_cache.build_ns", "plan_cache.evictions", "plan_cache.hit_ns", "plan_cache.hits",
		"plan_cache.idle", "plan_cache.misses", "plan_cache.shapes",
		"planner.counters.plans_analytic", "planner.counters.plans_pinned", "planner.counters.plans_tuned",
		"planner.counters.search_ns", "planner.counters.searches", "planner.counters.store_loads",
		"planner.counters.store_saves", "planner.counters.tune_hits", "planner.counters.tune_misses",
		"planner.store",
		"policy",
		"recovery.breaker_trips", "recovery.checkpoints", "recovery.degradations", "recovery.resumes", "recovery.retries",
		"statuses", "uptime_ms", "workers",
	}
	if got := testutil.JSONKeys(t, raw); !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/metrics key set changed:\n got %q\nwant %q", got, want)
	}
}
