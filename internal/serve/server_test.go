package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nbody"
	"nbody/internal/core"
	"nbody/internal/faults"
	"nbody/internal/plan"
)

// newTestServer starts a Server on an httptest listener and registers the
// teardown.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Quiet = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// solveBody marshals a request for sys.
func solveBody(t testing.TB, tenant string, sys *nbody.System, mutate func(*SolveRequest)) []byte {
	t.Helper()
	req := SolveRequest{Tenant: tenant, Positions: make([][3]float64, sys.Len()), Charges: sys.Charges}
	for i, p := range sys.Positions {
		req.Positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	if mutate != nil {
		mutate(&req)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postSolve(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url+"/v1/solve", body)
}

// postJSON posts body to url and reads the whole response.
func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSolveMatchesInProcess drives concurrent tenants with mixed shapes
// through the HTTP server and checks every response bitwise against an
// in-process solver of the same shape — the differential contract: serving
// adds queueing and caching, never different numbers.
func TestSolveMatchesInProcess(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4})

	shapes := []struct {
		n       int
		compute string
	}{
		{300, "potentials"},
		{512, "accelerations"},
	}
	type ref struct {
		phi []float64
		acc []nbody.Vec3
	}
	refs := make([]ref, len(shapes))
	for i, sh := range shapes {
		sys := nbody.NewUniformSystem(sh.n, int64(sh.n))
		depth := core.OptimalDepth(sh.n, 32)
		a, err := nbody.NewAnderson(Domain(), nbody.Options{Accuracy: nbody.Fast, Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		if sh.compute == "accelerations" {
			refs[i].phi, refs[i].acc, err = a.Accelerations(sys)
		} else {
			refs[i].phi, err = a.Potentials(sys)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for _, tenant := range []string{"alice", "bob", "carol"} {
		for si := range shapes {
			wg.Add(1)
			go func(tenant string, si int) {
				defer wg.Done()
				sh := shapes[si]
				sys := nbody.NewUniformSystem(sh.n, int64(sh.n))
				body := solveBody(t, tenant, sys, func(r *SolveRequest) { r.Compute = sh.compute })
				for rep := 0; rep < 3; rep++ {
					resp, data := postSolve(t, hs.URL, body)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("tenant %s shape %d: status %d: %s", tenant, si, resp.StatusCode, data)
						return
					}
					var sr SolveResponse
					if err := json.Unmarshal(data, &sr); err != nil {
						t.Error(err)
						return
					}
					if sr.N != sh.n || len(sr.Phi) != sh.n {
						t.Errorf("tenant %s: got N=%d len(phi)=%d, want %d", tenant, sr.N, len(sr.Phi), sh.n)
						return
					}
					for i := range sr.Phi {
						if sr.Phi[i] != refs[si].phi[i] {
							t.Errorf("tenant %s shape %d rep %d: phi[%d] = %v, want %v (bitwise)",
								tenant, si, rep, i, sr.Phi[i], refs[si].phi[i])
							return
						}
					}
					if sh.compute == "accelerations" {
						if len(sr.Acc) != sh.n {
							t.Errorf("tenant %s: no accelerations in response", tenant)
							return
						}
						for i, a := range sr.Acc {
							want := refs[si].acc[i]
							if a != [3]float64{want.X, want.Y, want.Z} {
								t.Errorf("tenant %s: acc[%d] = %v, want %v", tenant, i, a, want)
								return
							}
						}
					}
				}
			}(tenant, si)
		}
	}
	wg.Wait()
}

// TestPlanCacheHitsAcrossRequests proves the second same-shape request is
// served warm and bitwise-identically.
func TestPlanCacheHitsAcrossRequests(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2})
	sys := nbody.NewUniformSystem(256, 7)
	body := solveBody(t, "warm", sys, nil)

	var first SolveResponse
	for rep := 0; rep < 3; rep++ {
		resp, data := postSolve(t, hs.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rep %d: status %d: %s", rep, resp.StatusCode, data)
		}
		var sr SolveResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			if sr.CacheHit {
				t.Fatalf("first request of a shape reported a cache hit")
			}
			first = sr
			continue
		}
		if !sr.CacheHit {
			t.Fatalf("rep %d not served from the plan cache", rep)
		}
		for i := range sr.Phi {
			if sr.Phi[i] != first.Phi[i] {
				t.Fatalf("rep %d: phi[%d] differs from cold solve", rep, i)
			}
		}
	}
	st := srv.plans.Stats()
	if st.Hits < 2 || st.Misses != 1 {
		t.Fatalf("plan stats = %+v, want 1 miss and >= 2 hits", st)
	}
}

// TestErrorPaths drives every malformed-request class and checks the
// status code and error code the wire contract promises.
func TestErrorPaths(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, MaxN: 1024, MaxBodyBytes: 1 << 20})
	valid := nbody.NewUniformSystem(16, 1)

	cases := []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"malformed json", []byte(`{"positions": [[0.1,`), 400, "invalid_request"},
		{"empty system", []byte(`{"positions": [], "charges": []}`), 400, "invalid_request"},
		{"mismatched charges", solveBody(t, "", valid, func(r *SolveRequest) { r.Charges = r.Charges[:8] }), 400, "invalid_request"},
		{"unknown accuracy", solveBody(t, "", valid, func(r *SolveRequest) { r.Accuracy = "warp9" }), 400, "invalid_request"},
		{"unknown compute", solveBody(t, "", valid, func(r *SolveRequest) { r.Compute = "vibes" }), 400, "invalid_request"},
		{"depth one", solveBody(t, "", valid, func(r *SolveRequest) { r.Depth = 1 }), 400, "invalid_request"},
		{"negative depth", solveBody(t, "", valid, func(r *SolveRequest) { r.Depth = -3 }), 400, "invalid_request"},
		{"out of domain", solveBody(t, "", valid, func(r *SolveRequest) { r.Positions[3] = [3]float64{2.5, 0.5, 0.5} }), 400, "invalid_request"},
		{"non-finite position", []byte(`{"positions": [[1e999, 0.5, 0.5]], "charges": [1]}`), 400, "invalid_request"},
		{"forged huge N", hugeNBody(2048), 413, "too_large"},
		{"depth over cap", solveBody(t, "", valid, func(r *SolveRequest) { r.Depth = 9 }), 413, "too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postSolve(t, hs.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, data)
			}
			var er ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("non-JSON error body: %s", data)
			}
			if er.Code != tc.code {
				t.Fatalf("code = %q, want %q", er.Code, tc.code)
			}
		})
	}

	t.Run("body over cap", func(t *testing.T) {
		_, hs := newTestServer(t, Config{Workers: 2, MaxBodyBytes: 512})
		resp, data := postSolve(t, hs.URL, solveBody(t, "", valid, nil))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, data)
		}
	})
	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/v1/solve")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// hugeNBody fabricates a request with n particles, all valid, to trip the
// MaxN admission cap (the decoder must reject it before building anything).
func hugeNBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"positions":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `[%g,0.5,0.5]`, 0.001+0.9*float64(i)/float64(n))
	}
	b.WriteString(`],"charges":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('1')
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestDeadlineExceeded injects a delay longer than the request deadline
// into the near-field phase and checks the 504 path: the deadline crosses
// the dispatcher into the solver's own cancellation checks.
func TestDeadlineExceeded(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	defer faults.Reset()

	sys := nbody.NewUniformSystem(256, 3)
	// Warm the plan first so the delayed request measures the solve, not
	// the construction.
	if resp, data := postSolve(t, hs.URL, solveBody(t, "slow", sys, nil)); resp.StatusCode != 200 {
		t.Fatalf("warmup failed: %d %s", resp.StatusCode, data)
	}

	faults.InjectDelay("core/near", 400*time.Millisecond)
	body := solveBody(t, "slow", sys, func(r *SolveRequest) { r.DeadlineMS = 50 })
	resp, data := postSolve(t, hs.URL, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Code != "deadline_exceeded" {
		t.Fatalf("error body = %s", data)
	}

	// The server healed: the same tenant's next request succeeds.
	if resp, data := postSolve(t, hs.URL, solveBody(t, "slow", sys, nil)); resp.StatusCode != 200 {
		t.Fatalf("post-deadline solve failed: %d %s", resp.StatusCode, data)
	}
}

// TestOverloadRejects floods one tenant far past its queue depth and
// checks the admission contract: excess requests bounce with 429
// immediately, admitted ones all finish with 200, and nothing 5xxes. An
// injected near-field delay pins every solve at ~150ms so the flood
// deterministically outruns the two workers and the depth-1 queue.
func TestOverloadRejects(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 1, Policy: PolicyFIFO})
	defer faults.Reset()
	sys := nbody.NewUniformSystem(2048, 5)
	body := solveBody(t, "flood", sys, nil)

	// Warm the plan so the flood measures admission, not construction.
	if resp, data := postSolve(t, hs.URL, body); resp.StatusCode != 200 {
		t.Fatalf("warmup: %d %s", resp.StatusCode, data)
	}
	faults.InjectDelayN("core/near", 150*time.Millisecond, 100)

	const flood = 24
	statuses := make(chan int, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postSolve(t, hs.URL, body)
			statuses <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(statuses)

	counts := map[int]int{}
	for s := range statuses {
		counts[s]++
	}
	if counts[200] == 0 {
		t.Fatalf("no request survived the flood: %v", counts)
	}
	if counts[429] == 0 {
		t.Fatalf("queue depth 1 admitted all %d concurrent requests: %v", flood, counts)
	}
	if counts[200]+counts[429] != flood {
		t.Fatalf("unexpected statuses under flood: %v", counts)
	}
	if st := srv.ReadMetrics(); st.Admission.Rejected == 0 {
		t.Fatalf("admission stats recorded no rejects: %+v", st.Admission)
	}
}

// TestSimulateStream runs a short integration over the streaming endpoint
// and compares the final particle state bitwise against the same
// integration run in process.
func TestSimulateStream(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})

	const n, steps, every = 128, 4, 2
	const dt = 1e-3
	sys := nbody.NewUniformSystem(n, 11)

	req := SimulateRequest{Steps: steps, DT: dt, StreamEvery: every}
	req.Tenant = "sim"
	req.Positions = make([][3]float64, n)
	for i, p := range sys.Positions {
		req.Positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	req.Charges = sys.Charges
	body, _ := json.Marshal(req)

	resp, err := http.Post(hs.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("content type = %q, want ndjson", ct)
	}

	var frames []Frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var f Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) != steps/every {
		t.Fatalf("got %d frames, want %d", len(frames), steps/every)
	}
	last := frames[len(frames)-1]
	if !last.Final || last.Step != steps || len(last.Positions) != n || len(last.Velocity) != n {
		t.Fatalf("final frame malformed: final=%v step=%d len=%d/%d", last.Final, last.Step, len(last.Positions), len(last.Velocity))
	}

	// In-process reference: the same shape over the enlarged simulation
	// domain, stepped identically.
	depth := core.OptimalDepth(n, 32)
	a, err := nbody.NewAnderson(SimDomain(), nbody.Options{Accuracy: nbody.Fast, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	ref := nbody.NewUniformSystem(n, 11)
	sim, err := nbody.NewSimulation(ref, nil, a, dt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(steps); err != nil {
		t.Fatal(err)
	}
	for i, p := range sim.System.Positions {
		if last.Positions[i] != [3]float64{p.X, p.Y, p.Z} {
			t.Fatalf("positions[%d] = %v, want %v (bitwise)", i, last.Positions[i], p)
		}
	}
	for i, v := range sim.Velocities {
		if last.Velocity[i] != [3]float64{v.X, v.Y, v.Z} {
			t.Fatalf("velocities[%d] = %v, want %v (bitwise)", i, last.Velocity[i], v)
		}
	}
}

// TestSimulateRejectsBadParams covers the integration-parameter validation.
func TestSimulateRejectsBadParams(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	for _, body := range []string{
		`{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":0,"dt":0.001}`,
		`{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":4,"dt":0}`,
		`{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":4,"dt":1e999}`,
		`{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":4,"dt":0.001,"stream_every":-1}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestPhaseTableAndMetrics checks the per-request phase table and the
// metrics document.
func TestPhaseTableAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	sys := nbody.NewUniformSystem(256, 9)
	body := solveBody(t, "phases", sys, func(r *SolveRequest) { r.Phases = true })

	resp, data := postSolve(t, hs.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.PhaseTable) == 0 {
		t.Fatalf("phases requested but table empty")
	}
	var total int64
	for _, row := range sr.PhaseTable {
		total += row.NS
	}
	if total <= 0 {
		t.Fatalf("phase table carries no time: %+v", sr.PhaseTable)
	}

	mresp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Backend == "" || m.Workers < 2 {
		t.Fatalf("metrics missing basics: %+v", m)
	}
	if m.Statuses["200"] == 0 {
		t.Fatalf("metrics recorded no 200s: %+v", m.Statuses)
	}
	if m.PlanCache.Misses == 0 {
		t.Fatalf("metrics recorded no plan builds: %+v", m.PlanCache)
	}

	hresp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Fatalf("healthz = %d", hresp.StatusCode)
	}
}

// TestRecoveryScopedToRequest injects one panic into the T2 phase and
// checks the afflicted request reports exactly its own healing events
// while a clean follow-up request reports none.
func TestRecoveryScopedToRequest(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	defer faults.Reset()

	sys := nbody.NewUniformSystem(256, 13)
	body := solveBody(t, "heal", sys, nil)

	// Warm the plan, then arm one panic: the retry supervisor must heal it
	// within the same request.
	if resp, data := postSolve(t, hs.URL, body); resp.StatusCode != 200 {
		t.Fatalf("warmup: %d %s", resp.StatusCode, data)
	}
	faults.InjectPanicN("core/T2", "injected by TestRecoveryScopedToRequest", 1)

	resp, data := postSolve(t, hs.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("injected request not healed: %d %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Recovery == nil || sr.Recovery.Retries == 0 {
		t.Fatalf("healed request reports no recovery: %+v", sr.Recovery)
	}

	resp, data = postSolve(t, hs.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("clean request: %d %s", resp.StatusCode, data)
	}
	var clean SolveResponse
	if err := json.Unmarshal(data, &clean); err != nil {
		t.Fatal(err)
	}
	if clean.Recovery != nil {
		t.Fatalf("clean request inherited recovery events: %+v", clean.Recovery)
	}
}

// TestLifecycleSharedByBothEndpoints drives /v1/solve and /v1/simulate
// through the same rows, so the shared admit → run → finish path is pinned
// from both entrances: every rejection class answers with the same status,
// code and Retry-After whichever endpoint it arrived on, a success costs
// exactly one planner observation, one status tally and one plan checkout,
// and a healed solver panic is counted once.
func TestLifecycleSharedByBothEndpoints(t *testing.T) {
	sys := nbody.NewUniformSystem(256, 5)
	endpoints := []struct {
		name, path string
		sim        bool
		body       func(mutate func(*SolveRequest)) []byte
	}{
		{"solve", "/v1/solve", false, func(mutate func(*SolveRequest)) []byte {
			return solveBody(t, "t", sys, mutate)
		}},
		{"simulate", "/v1/simulate", true, func(mutate func(*SolveRequest)) []byte {
			b := solveBody(t, "t", sys, mutate)
			return []byte(strings.Replace(string(b), `{`, `{"steps":2,"dt":1e-5,`, 1))
		}},
	}
	// wantRejected checks one rejection: status, error code, Retry-After
	// where the class promises one, and the status tally.
	wantRejected := func(t *testing.T, srv *Server, resp *http.Response, data []byte, status int, code string) {
		t.Helper()
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || resp.StatusCode != status || er.Code != code {
			t.Fatalf("got %d %s, want %d with code %q", resp.StatusCode, data, status, code)
		}
		if ra := resp.Header.Get("Retry-After"); (status == 429 || status == 503) != (ra != "") {
			t.Errorf("Retry-After = %q on a %d", ra, status)
		}
		if got := srv.ReadMetrics().Statuses[fmt.Sprint(status)]; got != 1 {
			t.Errorf("statuses[%d] = %d, want 1", status, got)
		}
	}

	for _, ep := range endpoints {
		t.Run(ep.name+"/draining", func(t *testing.T) {
			srv, hs := newTestServer(t, Config{Workers: 2})
			srv.BeginDrain()
			resp, data := postJSON(t, hs.URL+ep.path, ep.body(nil))
			wantRejected(t, srv, resp, data, http.StatusServiceUnavailable, "draining")
		})
		t.Run(ep.name+"/body over cap", func(t *testing.T) {
			srv, hs := newTestServer(t, Config{Workers: 2, MaxBodyBytes: 512})
			resp, data := postJSON(t, hs.URL+ep.path, ep.body(nil))
			wantRejected(t, srv, resp, data, http.StatusRequestEntityTooLarge, "too_large")
		})
		t.Run(ep.name+"/infeasible deadline", func(t *testing.T) {
			srv, hs := newTestServer(t, Config{Workers: 2})
			body := ep.body(func(r *SolveRequest) { r.DeadlineMS = 50 })
			// Two observations of a minute per unit make the planner
			// confident that no 50 ms deadline can be met.
			req, dsys, err := decodeSolveRequest(bytes.NewReader(body), srv.limits())
			if err != nil {
				t.Fatal(err)
			}
			key := srv.keyFor(req, dsys.Len(), plan.Fingerprint(dsys.Positions), ep.sim)
			srv.Planner().Observe(key, time.Minute)
			srv.Planner().Observe(key, time.Minute)
			resp, data := postJSON(t, hs.URL+ep.path, body)
			wantRejected(t, srv, resp, data, http.StatusTooManyRequests, "shed_deadline")
			if srv.plans.Stats().Misses != 0 {
				t.Error("a shed request checked out a plan")
			}
		})
		t.Run(ep.name+"/tenant queue full", func(t *testing.T) {
			srv, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 1})
			block := make(chan struct{})
			defer close(block)
			started := make(chan struct{}, 2)
			hold := func(context.Context) error { started <- struct{}{}; <-block; return nil }
			// One worker at a time (two at once could meet in the one queue
			// slot and bounce), then the job that fills the slot.
			go srv.disp.Do(context.Background(), "t", hold)
			<-started
			go srv.disp.Do(context.Background(), "t", hold)
			<-started
			go srv.disp.Do(context.Background(), "t", hold)
			for deadline := time.Now().Add(2 * time.Second); srv.disp.Stats().Queued < 1; {
				if time.Now().After(deadline) {
					t.Fatal("third job never queued")
				}
				time.Sleep(time.Millisecond)
			}
			resp, data := postJSON(t, hs.URL+ep.path, ep.body(nil))
			wantRejected(t, srv, resp, data, http.StatusTooManyRequests, "overloaded")
		})
		t.Run(ep.name+"/success", func(t *testing.T) {
			srv, hs := newTestServer(t, Config{Workers: 2})
			resp, data := postJSON(t, hs.URL+ep.path, ep.body(nil))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			m := srv.ReadMetrics()
			if m.Overload.EstimatorObs != 1 || m.Overload.EstimatorShapes != 1 {
				t.Errorf("planner saw %d observations of %d shapes, want exactly one of one",
					m.Overload.EstimatorObs, m.Overload.EstimatorShapes)
			}
			if m.Statuses["200"] != 1 || len(m.Statuses) != 1 {
				t.Errorf("statuses = %v, want one 200", m.Statuses)
			}
			if got := m.PlanCache.Hits + m.PlanCache.Misses; got != 1 || m.PlanCache.Idle != 1 {
				t.Errorf("plan cache = %+v, want one checkout, returned", m.PlanCache)
			}
			if m.Latency.Count != 1 {
				t.Errorf("latency ring holds %d samples, want 1", m.Latency.Count)
			}
		})
		t.Run(ep.name+"/healed panic", func(t *testing.T) {
			srv, hs := newTestServer(t, Config{Workers: 2})
			defer faults.Reset()
			if resp, data := postJSON(t, hs.URL+ep.path, ep.body(nil)); resp.StatusCode != http.StatusOK {
				t.Fatalf("warmup: %d %s", resp.StatusCode, data)
			}
			faults.InjectPanicN("core/T2", "injected by TestLifecycleSharedByBothEndpoints", 1)
			if resp, data := postJSON(t, hs.URL+ep.path, ep.body(nil)); resp.StatusCode != http.StatusOK {
				t.Fatalf("injected request not healed: %d %s", resp.StatusCode, data)
			}
			m := srv.ReadMetrics()
			if m.Recovery.Retries != 1 {
				t.Errorf("recovery.retries = %d, want 1", m.Recovery.Retries)
			}
			if m.Statuses["200"] != 2 || m.Overload.EstimatorObs != 2 {
				t.Errorf("statuses = %v, planner observations = %d; want two of each", m.Statuses, m.Overload.EstimatorObs)
			}
		})
	}
}

// brokenWriter is a client that hung up: headers go nowhere and every write
// fails.
type brokenWriter struct{ http.ResponseWriter }

func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestReplyEncodeFailureIs500WriteFailureIs499 pins the two ways a finished
// solve can fail to reach its client. A response json cannot encode is the
// server's fault and nothing is on the wire yet: 500 `internal` with a body,
// nothing stored for replay. A write that fails is the client's hang-up: 499,
// accounted only.
func TestReplyEncodeFailureIs500WriteFailureIs499(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	rec := httptest.NewRecorder()
	bad := &SolveResponse{N: 1, Phi: []float64{math.NaN()}}
	srv.reply(rec, &call{endpoint: "solve", t0: time.Now(), tenant: "t"}, "key-1", bad)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable response: status %d, want 500", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "internal" || er.Error == "" {
		t.Fatalf("unencodable response: body %q (%v), want an `internal` error body", rec.Body.String(), err)
	}
	if _, ok := srv.idem.get("t", "key-1"); ok {
		t.Error("an unencodable response was stored for idempotent replay")
	}

	good := &SolveResponse{N: 1, Phi: []float64{1}}
	srv.reply(brokenWriter{httptest.NewRecorder()}, &call{endpoint: "solve", t0: time.Now(), tenant: "t"}, "", good)
	m := srv.ReadMetrics()
	if m.Statuses["500"] != 1 || m.Statuses["499"] != 1 || len(m.Statuses) != 2 {
		t.Errorf("statuses = %v, want one 500 and one 499", m.Statuses)
	}
}
