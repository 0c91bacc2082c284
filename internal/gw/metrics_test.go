package gw

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"nbody/internal/metrics"
	"nbody/internal/serve"
	"nbody/internal/testutil"
)

// TestTwoGatewaysCountTheirOwnEvents runs two gateways in one process over
// the same pair of replicas and forces a failover (and the ejection behind
// it) through A only: B, which proxied nothing, must report no event.
func TestTwoGatewaysCountTheirOwnEvents(t *testing.T) {
	r0 := startReplica(t, serve.Config{})
	r1 := startReplica(t, serve.Config{})
	// A probe cadence far longer than the test: only request outcomes move
	// the counters, so B cannot see r0 die on its own.
	cfg := Config{Replicas: []string{r0.URL(), r1.URL()}, ProbeEvery: time.Hour}
	hsA, hsB := gwServer(t, newGateway(t, cfg)), gwServer(t, newGateway(t, cfg))
	stats := func(url string) metrics.GatewayStats {
		resp, err := http.Get(url + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc MetricsDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.Gateway
	}

	r0.Kill()
	// Two solves: round-robin sends one of them to the dead r0 first.
	for i := 0; i < 2; i++ {
		resp := postSolve(t, hsA.Client(), hsA.URL, solveBody(t, "ten", 128, int64(i+1)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d through A: status %d", i, resp.StatusCode)
		}
	}
	if s := stats(hsA.URL); s.Failovers != 1 || s.Ejections != 1 {
		t.Errorf("A stats = %+v, want exactly one failover and one ejection", s)
	}
	if s := stats(hsB.URL); s != (metrics.GatewayStats{}) {
		t.Errorf("B stats = %+v, want all zero: A's events leaked", s)
	}
}

// TestGatewayMetricsKeySetGolden pins the field names of the gateway's GET
// /v1/metrics as wire protocol (the benchmark reads gateway.failovers,
// hedges_fired and ejections from it).
func TestGatewayMetricsKeySetGolden(t *testing.T) {
	r0 := startReplica(t, serve.Config{})
	hs := gwServer(t, newGateway(t, Config{Replicas: []string{r0.URL()}}))
	resp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := []string{
		"gateway.ejections", "gateway.failovers", "gateway.hedges_fired", "gateway.hedges_lost",
		"gateway.hedges_won", "gateway.recoveries", "gateway.stream_resumes", "gateway.streams_lost",
		"replicas[].outstanding", "replicas[].state", "replicas[].url",
		"retry_tokens",
	}
	if got := testutil.JSONKeys(t, raw); !reflect.DeepEqual(got, want) {
		t.Errorf("gateway /v1/metrics key set changed:\n got %q\nwant %q", got, want)
	}
}
