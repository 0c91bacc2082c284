package gw

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nbody"
	"nbody/internal/serve"
)

// testReplica is an in-process nbodyd whose process lifecycle the tests
// control: Kill severs every connection and stops listening (the closest
// an in-process fixture gets to SIGKILL), Restart brings a fresh server
// up on the same address, and Drain flips it into the cooperative
// shutdown state.
type testReplica struct {
	t    *testing.T
	addr string
	cfg  serve.Config

	mu  sync.Mutex
	srv *serve.Server
	hs  *http.Server
	ln  net.Listener
	up  bool
}

func startReplica(t *testing.T, cfg serve.Config) *testReplica {
	t.Helper()
	cfg.Quiet = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &testReplica{t: t, addr: ln.Addr().String(), cfg: cfg}
	r.start(ln)
	t.Cleanup(func() { r.Kill() })
	return r
}

func (r *testReplica) start(ln net.Listener) {
	srv, err := serve.New(r.cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	r.mu.Lock()
	r.srv, r.hs, r.ln, r.up = srv, hs, ln, true
	r.mu.Unlock()
	go hs.Serve(ln)
}

func (r *testReplica) URL() string { return "http://" + r.addr }

// Kill is the SIGKILL analog: every open connection drops mid-byte and
// the port stops answering.
func (r *testReplica) Kill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.up {
		return
	}
	r.up = false
	r.hs.Close()
	r.srv.Close()
	r.ln.Close()
}

// Restart binds a fresh server to the same address (a supervisor
// restarting the crashed process).
func (r *testReplica) Restart() {
	r.mu.Lock()
	if r.up {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		r.t.Errorf("restart %s: %v", r.addr, err)
		return
	}
	r.start(ln)
}

func newGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	cfg.Quiet = true
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// gwServer wraps the gateway in a real HTTP server (streams need real
// flushing and connection semantics).
func gwServer(t *testing.T, g *Gateway) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(g)
	t.Cleanup(hs.Close)
	return hs
}

func solveBody(t *testing.T, tenant string, n int, seed int64) []byte {
	t.Helper()
	sys := nbody.NewUniformSystem(n, seed)
	req := serve.SolveRequest{Tenant: tenant, Positions: make([][3]float64, n), Charges: sys.Charges}
	for i, p := range sys.Positions {
		req.Positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func simBody(t *testing.T, tenant string, n, steps int, mutate func(*serve.SimulateRequest)) []byte {
	t.Helper()
	sys := nbody.NewUniformSystem(n, 7)
	req := serve.SimulateRequest{
		SolveRequest: serve.SolveRequest{Tenant: tenant, Positions: make([][3]float64, n), Charges: sys.Charges},
		Steps:        steps,
		DT:           1e-4,
		StreamEvery:  1,
	}
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

func postSolve(t *testing.T, client *http.Client, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := client.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return resp
}

func waitState(t *testing.T, g *Gateway, url, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, st := range g.pool.Status() {
			if strings.HasSuffix(url, st.URL) || st.URL == url {
				if st.State == want {
					return
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("replica %s never reached state %q: %+v", url, want, g.pool.Status())
}

func TestGatewayFailoverOnDeadReplica(t *testing.T) {
	r0 := startReplica(t, serve.Config{})
	r1 := startReplica(t, serve.Config{})
	g := newGateway(t, Config{Replicas: []string{r0.URL(), r1.URL()}, ProbeEvery: 100 * time.Millisecond})
	hs := gwServer(t, g)

	// Kill r0 after the gateway saw it healthy: the first pick goes there,
	// fails at the transport, and must fail over to r1 without the client
	// seeing anything but a 200.
	r0.Kill()
	resp := postSolve(t, hs.Client(), hs.URL, solveBody(t, "ten", 128, 1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d after failover, body %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-GW-Replica"); got != r1.URL() {
		t.Fatalf("served by %q, want %q", got, r1.URL())
	}
	if s := g.stats.Read(); s.Failovers < 1 || s.Ejections < 1 {
		t.Fatalf("expected failover + ejection, got %+v", s)
	}
	// The transport failure marks r0 down immediately; later solves must
	// not touch it.
	for i := 0; i < 3; i++ {
		resp := postSolve(t, hs.Client(), hs.URL, solveBody(t, "ten", 128, 1))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-GW-Replica"); got != r1.URL() {
			t.Fatalf("solve %d served by %q, want %q", i, got, r1.URL())
		}
	}
}

func TestGatewayProbeDetectsDrainingAndRecovery(t *testing.T) {
	r0 := startReplica(t, serve.Config{})
	r1 := startReplica(t, serve.Config{})
	g := newGateway(t, Config{Replicas: []string{r0.URL(), r1.URL()}, ProbeEvery: 50 * time.Millisecond})
	hs := gwServer(t, g)

	// Drain r0 over its own API; the probe must flip it out of rotation.
	resp, err := http.Post(r0.URL()+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, g, r0.URL(), "draining")

	for i := 0; i < 3; i++ {
		resp := postSolve(t, hs.Client(), hs.URL, solveBody(t, "ten", 64, 2))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d during drain: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-GW-Replica"); got != r1.URL() {
			t.Fatalf("routed to draining replica %q", got)
		}
	}

	// Kill + restart r0: the probe must walk it down and back up.
	r0.Kill()
	waitState(t, g, r0.URL(), "down")
	r0.Restart()
	waitState(t, g, r0.URL(), "healthy")
	if s := g.stats.Read(); s.Recoveries < 1 {
		t.Fatalf("expected a recovery, got %+v", s)
	}
}

func TestGatewayNoReplica(t *testing.T) {
	r0 := startReplica(t, serve.Config{})
	g := newGateway(t, Config{Replicas: []string{r0.URL()}, ProbeEvery: 50 * time.Millisecond})
	hs := gwServer(t, g)
	r0.Kill()
	waitState(t, g, r0.URL(), "down")

	// Gateway healthz degrades with nothing eligible.
	hresp, err := hs.Client().Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead fleet: status %d", hresp.StatusCode)
	}

	resp := postSolve(t, hs.Client(), hs.URL, solveBody(t, "ten", 64, 3))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve with dead fleet: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestGatewayRetryBudgetExhaustion(t *testing.T) {
	r0 := startReplica(t, serve.Config{})
	r1 := startReplica(t, serve.Config{})
	// A budget that admits no retries at all: the first failure must
	// surface instead of failing over.
	g := newGateway(t, Config{
		Replicas:   []string{r0.URL(), r1.URL()},
		ProbeEvery: time.Hour, // keep the stale healthy view
		RetryRate:  1e-9,
		RetryBurst: 1e-9,
	})
	hs := gwServer(t, g)
	r0.Kill()

	resp := postSolve(t, hs.Client(), hs.URL, solveBody(t, "ten", 64, 4))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (budget spent, no failover)", resp.StatusCode)
	}
	if s := g.stats.Read(); s.Failovers != 0 {
		t.Fatalf("failovers %d, want 0 with an empty budget", s.Failovers)
	}
}

func TestGatewayIdempotentFailover(t *testing.T) {
	// One replica serving, one draining mid-request is hard to stage
	// deterministically; instead verify the key plumbing end to end: the
	// gateway forwards a client key, and a second identical request
	// replays server-side instead of re-solving.
	r0 := startReplica(t, serve.Config{})
	g := newGateway(t, Config{Replicas: []string{r0.URL()}, ProbeEvery: 100 * time.Millisecond})
	hs := gwServer(t, g)

	body := solveBody(t, "idem", 128, 5)
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "client-key-1")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d", resp.StatusCode)
	}

	req2, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/solve", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("Idempotency-Key", "client-key-1")
	resp2, err := hs.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Idempotent-Replay") != "1" {
		t.Fatal("second request with same key was not replayed")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("replayed body differs from original")
	}
}

func TestGatewayHedgeWins(t *testing.T) {
	fast := startReplica(t, serve.Config{})
	// The slow replica answers healthz promptly but sits on solves: the
	// hedge-delay path, not the health path, must rescue the request.
	slowBackend := startReplica(t, serve.Config{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			time.Sleep(400 * time.Millisecond)
		}
		u := slowBackend.URL() + r.URL.Path
		req, _ := http.NewRequestWithContext(r.Context(), r.Method, u, r.Body)
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		copyHeaders(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(slow.Close)

	g := newGateway(t, Config{
		Replicas:    []string{slow.URL, fast.URL()},
		ProbeEvery:  100 * time.Millisecond,
		Hedge:       true,
		HedgeMin:    10 * time.Millisecond,
		HedgeFactor: 1,
	})
	hs := gwServer(t, g)

	start := time.Now()
	resp := postSolve(t, hs.Client(), hs.URL, solveBody(t, "ten", 256, 6))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-GW-Replica"); got != fast.URL() {
		t.Fatalf("served by %q, want the hedge target %q", got, fast.URL())
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("hedge did not rescue the tail: took %v", elapsed)
	}
	if s := g.stats.Read(); s.HedgesFired < 1 || s.HedgesWon < 1 {
		t.Fatalf("expected a fired+won hedge, got %+v", s)
	}
}

// readFrames consumes an NDJSON stream, returning every frame.
func readFrames(t *testing.T, body io.Reader) []serve.Frame {
	t.Helper()
	var frames []serve.Frame
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var f serve.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Bytes(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return frames
}

func TestGatewayStreamResumeBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second stream chaos")
	}
	r0 := startReplica(t, serve.Config{})
	r1 := startReplica(t, serve.Config{})
	g := newGateway(t, Config{Replicas: []string{r0.URL(), r1.URL()}, ProbeEvery: 50 * time.Millisecond})
	hs := gwServer(t, g)

	const n, steps = 64, 1200
	body := simBody(t, "stream", n, steps, func(r *serve.SimulateRequest) { r.DT = 1e-5 })
	resp, err := hs.Client().Post(hs.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, b)
	}

	// Read a few frames, then SIGKILL the replica serving the stream (the
	// deterministic first pick is r0). The client keeps reading the same
	// response; the gateway must splice in a resumed stream.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var frames []serve.Frame
	for len(frames) < 3 && sc.Scan() {
		var f serve.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame: %v", err)
		}
		frames = append(frames, f)
	}
	r0.Kill()
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var f serve.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame after kill: %v", err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("client stream broke: %v", err)
	}

	// Continuity: every step 1..steps exactly once, in order, final last.
	if len(frames) != steps {
		t.Fatalf("got %d frames, want %d", len(frames), steps)
	}
	for i, f := range frames {
		if f.Step != i+1 {
			t.Fatalf("frame %d has step %d (duplicate or gap)", i, f.Step)
		}
		if f.Interrupted {
			t.Fatalf("interrupted frame leaked to the client at step %d", f.Step)
		}
		if f.ResumeToken != "" {
			t.Fatalf("gateway-injected token leaked at step %d", f.Step)
		}
	}
	last := frames[len(frames)-1]
	if !last.Final || len(last.Positions) != n {
		t.Fatalf("no final frame with full state: %+v", last)
	}
	if s := g.stats.Read(); s.StreamResumes < 1 {
		t.Fatalf("expected a stream resume, got %+v", s)
	}
	if s := g.stats.Read(); s.StreamsLost != 0 {
		t.Fatalf("stream counted lost: %+v", s)
	}

	// Bitwise acceptance: an uninterrupted run of the same request on a
	// fresh single replica, with the plan pinned to what the gateway ran,
	// must produce an identical final frame.
	depth := resp.Header.Get("X-Plan-Depth")
	accuracy := resp.Header.Get("X-Plan-Accuracy")
	ref := startReplica(t, serve.Config{})
	refBody := simBody(t, "stream", n, steps, func(r *serve.SimulateRequest) {
		r.DT = 1e-5
		r.StreamEvery = steps // final frame only
		fmt.Sscanf(depth, "%d", &r.Depth)
		r.Accuracy = accuracy
	})
	refResp, err := http.Post(ref.URL()+"/v1/simulate", "application/json", bytes.NewReader(refBody))
	if err != nil {
		t.Fatal(err)
	}
	defer refResp.Body.Close()
	refFrames := readFrames(t, refResp.Body)
	refLast := refFrames[len(refFrames)-1]
	if !refLast.Final {
		t.Fatal("reference run produced no final frame")
	}
	if refLast.Total != last.Total {
		t.Fatalf("final energy differs: gateway %v, reference %v", last.Total, refLast.Total)
	}
	for i := range refLast.Positions {
		if refLast.Positions[i] != last.Positions[i] {
			t.Fatalf("position %d differs: gateway %v, reference %v", i, last.Positions[i], refLast.Positions[i])
		}
		if refLast.Velocity[i] != last.Velocity[i] {
			t.Fatalf("velocity %d differs: gateway %v, reference %v", i, last.Velocity[i], refLast.Velocity[i])
		}
	}
}

func TestGatewayStreamFinalOnlyClient(t *testing.T) {
	// A client that wants only the final frame still gets a
	// crash-survivable stream: the gateway's injected cadence stays
	// invisible.
	r0 := startReplica(t, serve.Config{})
	r1 := startReplica(t, serve.Config{})
	g := newGateway(t, Config{Replicas: []string{r0.URL(), r1.URL()}, ProbeEvery: 50 * time.Millisecond})
	hs := gwServer(t, g)

	// dt small enough that the uniform system stays bound for the whole
	// integration (close pairs in a random system blow up at dt=1e-4).
	body := simBody(t, "finonly", 64, 1500, func(r *serve.SimulateRequest) {
		r.StreamEvery = 0
		r.DT = 1e-5
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(300 * time.Millisecond)
		r0.Kill()
	}()
	resp, err := hs.Client().Post(hs.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	frames := readFrames(t, resp.Body)
	<-done
	if len(frames) != 1 {
		t.Fatalf("final-only client got %d frames, want 1", len(frames))
	}
	if !frames[0].Final || frames[0].Step != 1500 {
		t.Fatalf("not a final frame at the last step: %+v", frames[0])
	}
}

func TestGatewayChaosKillLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos loop")
	}
	reps := []*testReplica{
		startReplica(t, serve.Config{}),
		startReplica(t, serve.Config{}),
		startReplica(t, serve.Config{}),
	}
	urls := []string{reps[0].URL(), reps[1].URL(), reps[2].URL()}
	g := newGateway(t, Config{Replicas: urls, ProbeEvery: 50 * time.Millisecond, Hedge: true})
	hs := gwServer(t, g)

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		// The kill loop: every 700ms SIGKILL one replica (round-robin),
		// restart it 400ms later. At most one replica is dead at a time.
		defer chaos.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(700 * time.Millisecond):
			}
			r := reps[i%len(reps)]
			i++
			r.Kill()
			select {
			case <-stop:
				r.Restart()
				return
			case <-time.After(400 * time.Millisecond):
			}
			r.Restart()
		}
	}()

	var work sync.WaitGroup
	var solve5xx, solveErr, solveOK int64
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			body := solveBody(t, fmt.Sprintf("chaos-%d", w), 192, int64(w))
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				resp, err := hs.Client().Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				mu.Lock()
				if err != nil {
					solveErr++
				} else {
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusOK:
						solveOK++
					case resp.StatusCode >= 500:
						solve5xx++
						t.Logf("solve 5xx: status %d body %.200s", resp.StatusCode, b)
					}
				}
				mu.Unlock()
				time.Sleep(25 * time.Millisecond)
			}
		}(w)
	}

	// Two long streams riding through the kills.
	streamFinals := make([]*serve.Frame, 2)
	for si := range streamFinals {
		work.Add(1)
		go func(si int) {
			defer work.Done()
			body := simBody(t, fmt.Sprintf("stream-%d", si), 64, 6000, func(r *serve.SimulateRequest) { r.DT = 1e-6 })
			resp, err := hs.Client().Post(hs.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("stream %d: %v", si, err)
				return
			}
			defer resp.Body.Close()
			frames := readFrames(t, resp.Body)
			prev := 0
			for _, f := range frames {
				if f.Step <= prev {
					t.Errorf("stream %d: step %d after %d", si, f.Step, prev)
					return
				}
				prev = f.Step
			}
			if len(frames) == 0 || !frames[len(frames)-1].Final {
				t.Errorf("stream %d: no final frame (lost)", si)
				return
			}
			streamFinals[si] = &frames[len(frames)-1]
		}(si)
	}

	work.Wait()
	close(stop)
	chaos.Wait()

	t.Logf("gateway stats: %+v, retry tokens %.1f", g.stats.Read(), g.budget.available())
	if solve5xx != 0 {
		t.Errorf("%d well-behaved solves saw 5xx (ok %d, transport err %d)", solve5xx, solveOK, solveErr)
	}
	if solveErr != 0 {
		t.Errorf("%d solves failed at the transport", solveErr)
	}
	if solveOK == 0 {
		t.Error("no solve succeeded at all")
	}
	if s := g.stats.Read(); s.StreamsLost != 0 {
		t.Errorf("streams lost under chaos: %+v", s)
	}
	for si, f := range streamFinals {
		if f == nil {
			continue // already reported
		}
		if f.Step != 6000 {
			t.Errorf("stream %d final at step %d, want 6000", si, f.Step)
		}
	}
}

// TestGatewaySolveDoesNotParseBodyUnlessHedging pins the proxy's cost with
// hedging off: the particle count feeds only the hedge gate and the hedge
// delay, so an unhedged solve must be forwarded without touching its body.
// The count itself allocates nothing; the whole proxied round trip against a
// canned-response replica — client side, gateway, upstream hop and stub
// included — must stay at the cost of reading the body once, far below the
// one allocation per particle a parse of an N = 4096 body would add.
// TestParticleCountIsPositionsLength pins the hedge gate's bracket count to
// len(positions) on the solve bodies clients send.
func TestParticleCountIsPositionsLength(t *testing.T) {
	for _, n := range []int{0, 1, 512, 4096} {
		if got := particleCount(solveBody(t, "ten", n, 5)); got != n {
			t.Errorf("particleCount of an N = %d body = %d", n, got)
		}
	}
}

func TestGatewaySolveDoesNotParseBodyUnlessHedging(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"n":4096,"phi":[],"backend":"stub","rung":0,"cache_hit":true,"queue_ns":0,"solve_ns":0}`+"\n")
	}))
	t.Cleanup(stub.Close)
	// One probe at construction, none during the measurement.
	g := newGateway(t, Config{Replicas: []string{stub.URL}, ProbeEvery: time.Hour})
	body := solveBody(t, "ten", 4096, 3)

	if count := testing.AllocsPerRun(5, func() { particleCount(body) }); count != 0 {
		t.Fatalf("counting the body's particles costs %.0f allocations, want 0", count)
	}
	roundTrip := testing.AllocsPerRun(20, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
	// Reads 123 with the body read into one buffer sized from Content-Length;
	// io.ReadAll's growth steps made it 150. The ceiling is that reading
	// + 10 %; the race detector allocates too (132 to 136) and gets 10 % more.
	ceiling := 135.0
	if raceEnabled {
		ceiling = 150
	}
	if roundTrip > ceiling {
		t.Fatalf("an unhedged proxied solve costs %.0f allocations per round trip, want <= %.0f: the gateway is parsing the body or growing its buffer", roundTrip, ceiling)
	}
}
