package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbody"
	"nbody/internal/faults"
)

// TestSoakChurnCancelFault is the race/soak satellite: tenant churn (every
// request a fresh tenant name, so dispatcher queue state is created and
// reaped constantly), client-side cancellation mid-solve, and one injected
// solver panic that the ladder must heal — all concurrently, under -race in
// CI. Afterwards the server drains and the goroutine count returns to the
// baseline: no worker, handler, or dispatcher goroutine leaks.
func TestSoakChurnCancelFault(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}

	// Warm-up pass: the shared sched worker pool and other process-wide
	// singletons spin up goroutines on first solve that persist by design.
	// Measure the baseline after they exist.
	warm := func() {
		srv, err := New(Config{Workers: 2, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		sys := nbody.NewUniformSystem(128, 1)
		resp, err := http.Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(soakBody(t, "warm", sys, 0)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		hs.Close()
		srv.Close()
	}
	warm()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	srv, err := New(Config{Workers: 4, QueueDepth: 4, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	// The probe below needs to know when every churn request has reached
	// the server and left it: dialed counts the clients' connections,
	// accepted the server's, and busy holds the server's connections that
	// are new or serving a request.
	var dialed atomic.Int64
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := new(net.Dialer).DialContext(ctx, network, addr)
			if err == nil {
				dialed.Add(1)
			}
			return c, err
		},
	}}
	var connMu sync.Mutex
	var accepted int64
	busy := map[net.Conn]bool{}
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ConnState = func(c net.Conn, st http.ConnState) {
		connMu.Lock()
		if st == http.StateNew {
			accepted++
		}
		if st == http.StateNew || st == http.StateActive {
			busy[c] = true
		} else {
			delete(busy, c)
		}
		connMu.Unlock()
	}
	hs.Start()
	defer faults.Reset()

	sys := nbody.NewUniformSystem(256, 2)
	var fives, healed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				tenant := fmt.Sprintf("churn-%d-%d", g, i) // fresh tenant every request
				mode := rng.Intn(4)
				switch mode {
				case 0: // client cancels mid-solve
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+rng.Intn(5))*time.Millisecond)
					req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/solve",
						bytes.NewReader(soakBody(t, tenant, sys, 0)))
					req.Header.Set("Content-Type", "application/json")
					resp, err := client.Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					cancel()
				case 1: // tight server-side deadline
					resp, err := client.Post(hs.URL+"/v1/solve", "application/json",
						bytes.NewReader(soakBody(t, tenant, sys, 1+int64(rng.Intn(4)))))
					if err == nil {
						// 504 is this branch's expected outcome; anything
						// else in the 5xx range is a server failure.
						if resp.StatusCode >= 500 && resp.StatusCode != http.StatusGatewayTimeout {
							fives.Add(1)
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				default: // plain solve; one goroutine arms a fault mid-run
					if g == 0 && i == iters/2 {
						faults.InjectPanicN("core/T2", "soak fault", 1)
					}
					resp, err := client.Post(hs.URL+"/v1/solve", "application/json",
						bytes.NewReader(soakBody(t, tenant, sys, 0)))
					if err != nil {
						t.Errorf("transport error: %v", err)
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode == 200, resp.StatusCode == 429, resp.StatusCode == 504:
						// Success, admission pressure, and deadline pressure
						// are all expected here (the mid-run fault is healed
						// inside whichever request consumed it).
					default:
						fives.Add(1)
						t.Errorf("status %d: %s", resp.StatusCode, body)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if n := fives.Load(); n > 0 {
		t.Fatalf("%d requests failed with 5xx under soak", n)
	}

	// Deterministic healing probe: with the churn quiesced, arm one panic
	// and send one plain solve — the only request that can consume it. It
	// must succeed and report its own recovery delta. The fault is
	// process-global, and a churn request can outlive its client: a
	// cancelled request may still wait in the listener's backlog or be read
	// by the server, which then admits it, and a solve keeps running after
	// a cancel or a 504. So wait until the server has accepted every
	// connection the clients dialed and none is new or serving a request,
	// and then, as Drain does, until the dispatcher has nothing queued or
	// running. Once all three hold, nothing but the probe can start a
	// solve. A dial that completes after its request was cancelled leaves a
	// connection in the client's idle pool that the server sees as new
	// until it closes, so each poll closes the idle ones.
	quiet := func() bool {
		client.CloseIdleConnections()
		d := dialed.Load()
		connMu.Lock()
		settled := accepted >= d && len(busy) == 0
		connMu.Unlock()
		return settled && srv.disp.Quiesced()
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for giveUp := time.Now().Add(10 * time.Second); !quiet(); <-tick.C {
		if time.Now().After(giveUp) {
			t.Fatalf("server not quiet 10 s after the churn: %+v", srv.disp.Stats())
		}
	}
	faults.InjectPanicN("core/T2", "soak probe fault", 1)
	resp, err := client.Post(hs.URL+"/v1/solve", "application/json",
		bytes.NewReader(soakBody(t, "probe", sys, 0)))
	if err != nil {
		t.Fatal(err)
	}
	probeBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("probe request not healed: %d %s", resp.StatusCode, probeBody)
	}
	var sr SolveResponse
	if err := json.Unmarshal(probeBody, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Recovery != nil {
		healed.Add(1)
	}
	if healed.Load() == 0 {
		t.Errorf("injected fault produced no healed request (no Recovery delta seen)")
	}

	hs.Close()
	srv.Close()

	// Drain check: within a grace period the goroutine count must return
	// to the post-warm-up baseline (plus slack for runtime/netpoll noise).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func soakBody(t *testing.T, tenant string, sys *nbody.System, deadlineMS int64) []byte {
	t.Helper()
	req := SolveRequest{Tenant: tenant, Positions: make([][3]float64, sys.Len()), Charges: sys.Charges, DeadlineMS: deadlineMS}
	for i, p := range sys.Positions {
		req.Positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
