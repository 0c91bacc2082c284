package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nbody"
	"nbody/internal/serve"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "nbody", Start: 10, End: 90},
		// Two overlapping children: their union [20,70] is covered once.
		{ID: 3, Parent: 2, Layer: "core", Start: 20, End: 50},
		{ID: 4, Parent: 2, Layer: "core", Start: 40, End: 70},
		// A child that overruns its parent is clipped to it: [80,90].
		{ID: 5, Parent: 2, Layer: "core", Start: 80, End: 120},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"bench": 20, "nbody": 20, "core": 30 + 30 + 40}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, self[layer], w)
		}
	}

	tr := newTracer()
	root := tr.begin(0, 7, "bench", "op")
	kid := tr.attach(root, 7, "core", "phase", tr.startOf(root)+5, 10)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[kid-1].Parent != root || tr.spans[kid-1].Op != 7 || tr.spans[kid-1].End-tr.spans[kid-1].Start != 10 {
		t.Errorf("attach recorded %+v", tr.spans)
	}
	var off *tracer
	if id := off.begin(0, 0, "x", "y"); id != 0 || off.attach(0, 0, "x", "y", 0, 1) != 0 {
		t.Error("a nil tracer must record nothing")
	}
	off.end(1)
}

func TestInputsFollowTheSeed(t *testing.T) {
	a := schedule(7, 2, 50, 4)
	b := schedule(7, 2, 50, 4)
	c := schedule(8, 2, 50, 4)
	if len(a) != 108 {
		t.Fatalf("schedule has %d arrivals, want 108", len(a))
	}
	heavy := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if a[i].due < 0 || a[i].due >= 2*time.Second {
			t.Fatalf("arrival %d due at %v, outside the run", i, a[i].due)
		}
		if a[i].heavy {
			heavy++
		}
	}
	if heavy != 8 {
		t.Errorf("%d heavy arrivals, want 8", heavy)
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}

	body := func(seed int64) []byte {
		out, err := requestBody(nbody.NewUniformSystem(32, seed), "t", "potentials", 1000)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(body(3), body(3)) {
		t.Error("same seed, different request bytes")
	}
	if bytes.Equal(body(3), body(4)) {
		t.Error("different seeds, same request bytes")
	}
}

func TestReplyVerification(t *testing.T) {
	reply := func(n int, phi []float64) []byte {
		out, err := json.Marshal(serve.SolveResponse{Tenant: "t", N: n, Phi: phi, Backend: "x"})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	good := reply(3, []float64{1, 2, 3})
	if n, l, ok := replyShape(good); !ok || n != 3 || l != 3 {
		t.Errorf("replyShape = %d, %d, %v", n, l, ok)
	}
	if _, l, ok := replyShape(reply(0, []float64{})); !ok || l != 0 {
		t.Errorf("empty phi: len %d ok %v", l, ok)
	}
	if _, _, ok := replyShape([]byte(`{"error":"x","code":"y"}`)); ok {
		t.Error("an error body passed for a solve reply")
	}
	v := verifier{n: 3, every: 2}
	for i, c := range []struct {
		status int
		body   []byte
		want   bool
	}{
		{200, good, true},                          // first: sets the reference
		{200, good, true},                          // 2nd: fully compared
		{429, good, false},                         // refused
		{200, reply(2, []float64{1, 2}), false},    // wrong n
		{200, reply(3, []float64{1, 2}), false},    // n and len(phi) disagree
		{200, good, true},                          // 3rd good: shape check only
		{200, reply(3, []float64{1, 2, 4}), false}, // 4th good shape: fully compared, bits differ
	} {
		if got := v.check(c.status, c.body); got != c.want {
			t.Errorf("check %d = %v, want %v", i, got, c.want)
		}
	}
}

// TestFailureAccounting runs the open loop against a server that refuses
// every third request and answers every fifth after its deadline: both
// count as failed, and neither contributes a latency.
func TestFailureAccounting(t *testing.T) {
	sys := nbody.NewUniformSystem(4, 1)
	good, err := json.Marshal(serve.SolveResponse{N: 4, Phi: []float64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals are spaced wider than a late reply takes, so a late reply
	// delays no later request past its own deadline.
	const deadline, spacing = 100 * time.Millisecond, 250 * time.Millisecond
	var count atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		switch k := count.Add(1); {
		case k%3 == 0:
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"shed","code":"shed_deadline"}`))
			return
		case k%5 == 0:
			time.Sleep(deadline + deadline/2)
		}
		_, _ = w.Write(good)
	}))
	defer hs.Close()

	in := &fleetInput{}
	for _, ti := range []*tenantInput{&in.light, &in.heavy} {
		*ti = tenantInput{sys: sys, body: []byte(`{}`), v: verifier{n: 4, every: 1}}
		if !ti.v.check(200, good) {
			t.Fatal("reference reply rejected")
		}
	}
	arrivals := make([]arrival, 10)
	for i := range arrivals {
		arrivals[i] = arrival{due: time.Duration(i) * spacing, heavy: i%4 == 0}
	}
	recs := openLoop(hs.URL, in, arrivals, 1, deadline, false)
	st := summarise(recs, in)
	// One sender, so requests reach the server in order: k = 3, 6, 9 are
	// refused and k = 5, 10 late.
	if len(recs) != 10 || st.failed != 5 {
		t.Fatalf("%d requests, %d failed; want 10 and 5", len(recs), st.failed)
	}
	if got := len(st.lightMS) + len(st.heavyMS); got != 5 {
		t.Errorf("%d latencies recorded, want 5 (failed requests have none)", got)
	}
	if st.particles != 5*4 {
		t.Errorf("particles = %d, want %d", st.particles, 5*4)
	}
	r := newResult("x", runConfig{}, false)
	r.Attempted, r.Failed = len(recs), st.failed
	if got, want := r.failShare(), 5.0/10; math.Abs(got-want) > 1e-12 {
		t.Errorf("fail share = %g, want %g", got, want)
	}
	if !strings.Contains(r.driverLine(), `"failed":5`) {
		t.Errorf("driver line %s", r.driverLine())
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "particles_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, []float64{10, 10.1, 10.2}, []float64{10.2, 10.1, 10.3}, verdictOK},
		{"slower by 20%", lower, []float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, verdictRegressed},
		{"noisy", lower, []float64{10, 12, 14}, []float64{11, 12, 13}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{10, 12, 14}, []float64{7, 8, 9}, verdictOK},
		{"throughput fell", higher, []float64{100, 101, 102}, []float64{80, 81, 82}, verdictRegressed},
		{"throughput rose", higher, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictOK},
		{"single runs", lower, []float64{10}, []float64{10.5}, verdictOK},
	} {
		if got, _ := judge(c.m, newSide(c.a), newSide(c.b)); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	spec := benchmarkSpec{EndToEnd: []metricSpec{lower}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	set := func(latency float64, failed int) *resultSet {
		return &resultSet{Runs: []*result{{
			Workload: "w", Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"latency_p50_ms": {latency, "ms"}},
		}}}
	}
	var out bytes.Buffer
	if code := compareSets(&out, spec, set(10, 0), set(10.2, 0)); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	if code := compareSets(&out, spec, set(10, 0), set(13, 0)); code == 0 {
		t.Error("a 30% slower set must exit non-zero")
	}
	if code := compareSets(&out, spec, set(10, 0), set(10, 1)); code == 0 {
		t.Error("a higher fail_share must exit non-zero")
	}
}

// TestSmokeWorkloads runs both passes of every workload at tiny sizes and
// checks that every metric BENCHMARK.json names comes out with its unit.
func TestSmokeWorkloads(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads()))
	}
	extras := map[string][]string{
		"solve_uniform": {"nbody.solve_scalar_ms", "bh.solve_ms", "dpfmm.cycles_per_particle_k12", "dpfmm.efficiency_pct_k12", "dpfmm.wall_ms"},
		"step_plummer":  {"nbody.leapfrog_self_ms", "nbody.energy_drift", "nbody.checkpoint_ms", "nbody.checkpoint_bytes"},
		"serve_small":   {"serve.rtt_ms_n64", "serve.overhead_ms_n128", "serve.overhead_unexplained_share_n64"},
		"fleet_open": {"gw.hop_ms_n64", "gw.hop_ms_n256", "gw.light_p90_ms", "gw.light_p99_ms", "gw.heavy_p50_ms", "gw.heavy_p95_ms",
			"gw.gen_late_p50_ms", "gw.gen_late_p95_ms", "gw.replica_share_max", "gw.failovers", "gw.hedges_fired", "gw.ejections", "gw.max_rate_ok_rps"},
	}
	for i, w := range workloads() {
		w := w
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 5, seconds: 0.3, sz: tinySizes, outDir: t.TempDir()}
			res, err := w.timed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, spec.EndToEnd)

			tr := newTracer()
			res, err = w.traced(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, spec.PerLayer)
			for _, name := range extras[w.name] {
				if _, ok := res.Extras[name]; !ok {
					t.Errorf("traced pass did not report %s", name)
				}
			}
			if len(tr.spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
			for _, s := range tr.spans {
				if s.End < s.Start || s.Layer == "" || s.Name == "" {
					t.Fatalf("malformed span %+v", s)
				}
			}
			if err := tr.write(filepath.Join(cfg.outDir, "trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkRun holds a result against the metric list of its pass: exactly the
// named metrics, each finite and in its unit, and a correct run.
func checkRun(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d notes=%v", res.Correct, res.Failed, res.Attempted, res.Notes)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s not reported", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s = %v", m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		names := make(map[string]bool)
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range res.Metrics {
			if !names[name] {
				t.Errorf("%s reported but not in BENCHMARK.json", name)
			}
		}
	}
	var line struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
		t.Errorf("driver line %s: %v", res.driverLine(), err)
	}
}
