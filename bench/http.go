package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"nbody/internal/gw"
	"nbody/internal/serve"
)

// endpoint is an http.Server on a loopback port of its own.
type endpoint struct {
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*endpoint, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{hs: &http.Server{Handler: h}, url: "http://" + l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(l) // returns ErrServerClosed on close
	}()
	return e, nil
}

// close stops the listener and its connections and waits for Serve.
func (e *endpoint) close() {
	_ = e.hs.Close()
	<-e.done
}

// server is one in-process nbodyd: a serve.Server with its defaults behind
// real loopback HTTP.
type server struct {
	*endpoint
	s *serve.Server
}

func startServer() (*server, error) {
	s, err := serve.New(serve.Config{Quiet: true})
	if err != nil {
		return nil, err
	}
	e, err := listen(s.Handler())
	if err != nil {
		s.Close()
		return nil, err
	}
	return &server{endpoint: e, s: s}, nil
}

func (s *server) stop() {
	s.close()
	s.s.Close()
}

// fleet is the gateway over two replicas, all in this process, each behind
// its own loopback listener.
type fleet struct {
	*endpoint
	g        *gw.Gateway
	replicas []*server
}

func startFleet(replicas int) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < replicas; i++ {
		s, err := startServer()
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, s)
		urls = append(urls, s.url)
	}
	g, err := gw.New(gw.Config{Replicas: urls, Quiet: true})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.g = g
	if f.endpoint, err = listen(g); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) stop() {
	if f.endpoint != nil {
		f.close()
	}
	if f.g != nil {
		f.g.Close()
	}
	for _, s := range f.replicas {
		s.stop()
	}
}

// client is one caller with one connection of its own.
type client struct {
	hc    *http.Client
	reply bytes.Buffer // the last reply body, reused
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one solve request and reads the whole reply into c.reply.
func (c *client) post(url string, body []byte) (status int, err error) {
	resp, err := c.hc.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.reply.Reset()
	if _, err := io.Copy(&c.reply, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// replyShape reads `n` and the length of `phi` out of a solve reply without
// decoding the numbers; ok is false when the reply has not that form.
func replyShape(reply []byte) (n, phiLen int, ok bool) {
	i := bytes.Index(reply, []byte(`"n":`))
	j := bytes.Index(reply, []byte(`"phi":[`))
	if i < 0 || j < 0 {
		return 0, 0, false
	}
	digits := reply[i+4:]
	end := bytes.IndexAny(digits, ",}")
	if end < 0 {
		return 0, 0, false
	}
	n, err := strconv.Atoi(string(digits[:end]))
	if err != nil {
		return 0, 0, false
	}
	arr := reply[j+7:]
	end = bytes.IndexByte(arr, ']')
	if end < 0 {
		return 0, 0, false
	}
	if end > 0 {
		phiLen = bytes.Count(arr[:end], []byte{','}) + 1
	}
	return n, phiLen, true
}

// verifier checks replies for one request shape: status, `n` and `len(phi)`
// on every reply, and a full decode compared bitwise with the shape's first
// reply on every k-th.
type verifier struct {
	n     int
	every int
	seen  int
	want  uint64
	first []float64 // phi of the first reply, kept for the accuracy check
}

// check reports whether the reply is a correct answer for the shape.
func (v *verifier) check(status int, reply []byte) bool {
	if status != http.StatusOK {
		return false
	}
	n, phiLen, ok := replyShape(reply)
	if !ok || n != v.n || phiLen != v.n {
		return false
	}
	v.seen++
	if v.seen != 1 && (v.every <= 0 || v.seen%v.every != 0) {
		return true
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(reply, &resp); err != nil || len(resp.Phi) != v.n {
		return false
	}
	h := hashFloats(resp.Phi)
	if v.seen == 1 {
		v.want, v.first = h, resp.Phi
	}
	return h == v.want
}

// rtSample is one traced round trip, split with the fields the server
// reports about itself.
type rtSample struct {
	rtt, queue, solve time.Duration
	ok                bool
	phi               []float64
}

// traced sends one request under a serve-layer span, decodes the
// whole reply and attaches the server's own queue_ns and solve_ns as child
// spans. Only their durations are measured; they are laid mid-interval.
func (c *client) traced(tr *tracer, parent, op int, url string, body []byte, n int) rtSample {
	id := tr.begin(parent, op, "serve", "POST /v1/solve")
	t0 := time.Now()
	status, err := c.post(url, body)
	s := rtSample{rtt: time.Since(t0)}
	tr.end(id)
	if err != nil || status != http.StatusOK {
		return s
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(c.reply.Bytes(), &resp); err != nil || resp.N != n || len(resp.Phi) != n {
		return s
	}
	s.ok, s.phi = true, resp.Phi
	s.queue, s.solve = time.Duration(resp.QueueNS), time.Duration(resp.SolveNS)
	at := tr.startOf(id) + int64(s.rtt-s.queue-s.solve)/2
	tr.attach(id, op, "serve", "queue", at, s.queue)
	tr.attach(id, op, "serve", "solve", at+int64(s.queue), s.solve)
	return s
}

// putRoundTrip reports the split of a served round trip. overhead is what
// is left of the median round trip after the median queue wait and solve,
// so the three parts add up to serve.rtt_ms by construction.
func putRoundTrip(r *result, samples []rtSample, c costs) {
	var rtt, queue, solve []float64
	for _, s := range samples {
		r.Attempted++
		if !s.ok {
			r.Failed++
			continue
		}
		rtt, queue, solve = append(rtt, ms(s.rtt)), append(queue, ms(s.queue)), append(solve, ms(s.solve))
	}
	if len(rtt) < len(samples) {
		r.fail("%d of %d traced requests failed", len(samples)-len(rtt), len(samples))
	}
	sp := splitRoundTrip(median(rtt), median(queue), median(solve), c)
	r.put("serve.rtt_ms", sp.rtt, "ms")
	r.put("serve.queue_ms", sp.queue, "ms")
	r.put("serve.solve_ms", sp.solve, "ms")
	r.put("serve.overhead_ms", sp.overhead, "ms")
	r.put("serve.overhead_share", sp.overheadShare, "ratio")
	r.put("serve.overhead_unexplained_share", sp.unexplainedShare, "ratio")
}

// split is a round trip taken apart.
type split struct {
	rtt, queue, solve, overhead     float64 // ms
	overheadShare, unexplainedShare float64
}

func splitRoundTrip(rtt, queue, solve float64, c costs) split {
	sp := split{rtt: rtt, queue: queue, solve: solve, overhead: rtt - queue - solve}
	sp.overheadShare = ratio(sp.overhead, rtt)
	sp.unexplainedShare = ratio(sp.overhead-c.decodeMS-c.encodeMS-c.fingerprintMS, sp.overhead)
	return sp
}

// putServerCounters reports what the servers counted about themselves.
func putServerCounters(r *result, docs ...serve.Metrics) {
	var hits, misses, shed, s429, s504, browned int64
	for _, m := range docs {
		hits += m.PlanCache.Hits
		misses += m.PlanCache.Misses
		shed += m.Admission.Shed + m.Admission.ShedStale
		s429 += m.Statuses["429"]
		s504 += m.Statuses["504"]
		browned = m.Overload.Counters.Browned // process-wide, the same on every server
	}
	r.put("serve.plan_hit_share", ratio(float64(hits), float64(hits+misses)), "ratio")
	r.put("serve.shed", float64(shed), "count")
	r.put("serve.rejected_429", float64(s429), "count")
	r.put("serve.deadline_504", float64(s504), "count")
	r.put("serve.browned", float64(browned), "count")
}

// gatewayCounters reads the gateway's own /v1/metrics.
func gatewayCounters(url string) (gw.MetricsDoc, error) {
	var doc gw.MetricsDoc
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("gateway metrics: status %d", resp.StatusCode)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}
