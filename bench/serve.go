package main

import (
	"fmt"
	"sync"
	"time"

	"nbody"
	"nbody/internal/plan"
	"nbody/internal/serve"
)

// serveDeadline is the deadline of a request that names none: the server's
// default. A reply later than its deadline counts as failed.
const serveDeadline = 60 * time.Second

// warm sends k verified requests over one connection, which builds the plan
// and gives the verifier the shape's first reply.
func warm(url string, body []byte, v *verifier, k int) error {
	cl := newClient()
	defer cl.close()
	defer func(every int) { v.every = every }(v.every)
	v.every = 1 // a warm-up reply is always decoded and compared
	for i := 0; i < k; i++ {
		status, err := cl.post(url, body)
		if err != nil {
			return err
		}
		if !v.check(status, cl.reply.Bytes()) {
			return fmt.Errorf("warm-up request %d: status %d, reply not a correct answer", i, status)
		}
	}
	return nil
}

// servedProbeError sends the probe system of n particles through url and
// returns the RMS error of the reply.
func servedProbeError(url string, n int, sz sizes) (float64, error) {
	probe := nbody.NewUniformSystem(n, probeSeed)
	body, err := requestBody(probe, "probe", "potentials", 0)
	if err != nil {
		return 0, err
	}
	v := verifier{n: n}
	if err := warm(url, body, &v, 1); err != nil {
		return 0, err
	}
	return probeError(probe, v.first, sz), nil
}

// closedLoop runs `clients` callers, each sending its next request only when
// the previous reply is complete, for `seconds`. v must already hold the
// shape's first reply; every caller checks against a copy of it.
func closedLoop(url string, body []byte, v verifier, clients int, seconds float64) []opRec {
	results := make([][]opRec, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(out *[]opRec, v verifier) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for time.Since(start).Seconds() < seconds {
				rec := opRec{at: time.Since(start)}
				t0 := time.Now()
				status, err := cl.post(url, body)
				d := time.Since(t0)
				rec.latencyMS = ms(d)
				rec.ok = err == nil && d <= serveDeadline && v.check(status, cl.reply.Bytes())
				*out = append(*out, rec)
			}
		}(&results[c], v)
	}
	wg.Wait()
	var all []opRec
	for _, ops := range results {
		all = append(all, ops...)
	}
	return all
}

func serveSmallInput(cfg runConfig) (*nbody.System, []byte, error) {
	sys := nbody.NewUniformSystem(cfg.sz.serveN, cfg.seed)
	body, err := requestBody(sys, "t0", "potentials", 0)
	return sys, body, err
}

func serveSmallTimed(cfg runConfig) (*result, error) {
	r := newResult("serve_small", cfg, false)
	sys, body, err := serveSmallInput(cfg)
	if err != nil {
		return nil, err
	}
	var t timed
	for i := 0; i < cfg.sz.setups; i++ {
		t0 := time.Now()
		srv, err := startServer()
		if err != nil {
			return nil, err
		}
		err = warm(srv.url, body, &verifier{n: sys.Len()}, 1)
		t.setupS = append(t.setupS, time.Since(t0).Seconds())
		srv.stop()
		if err != nil {
			return nil, err
		}
	}

	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	v := verifier{n: sys.Len(), every: cfg.sz.fullCheckEvery}
	if err := warm(srv.url, body, &v, cfg.sz.serveWarmups); err != nil {
		return nil, err
	}
	sec := beginSection(cfg.seconds)
	t.ops = closedLoop(srv.url, body, v, cfg.sz.serveClients, cfg.seconds)
	t.use = sec.end()
	lat, failed := okLatencies(t.ops)
	t.particles = int64(len(lat)) * int64(sys.Len())
	t.seeded = relError(sys, v.first, cfg.sz.errSamples)
	if t.relErr, err = servedProbeError(srv.url, sys.Len(), cfg.sz); err != nil {
		return nil, err
	}
	r.Failed = failed
	r.putEndToEnd(t)
	if failed > 0 {
		r.fail("%d of %d requests failed, were refused, late or not bitwise equal to the first reply", failed, len(t.ops))
	}
	return r, nil
}

// servedShape is the library shape a server runs a potentials request of
// sys on: the canonical domain at the depth the planner resolves.
func servedShape(sys *nbody.System) shape {
	depth := planKey(plan.NewPlanner(6), sys).Plan.Depth
	return shape{sys: sys, box: serve.Domain(), opts: nbody.Options{Accuracy: nbody.Fast, Depth: depth}}
}

// tracedLoop is the traced closed loop of one caller: every reply decoded,
// compared bitwise with the first, and split into spans.
func tracedLoop(tr *tracer, url string, body []byte, n int, want uint64, seconds float64) []rtSample {
	cl := newClient()
	defer cl.close()
	var samples []rtSample
	start := time.Now()
	for op := 0; time.Since(start).Seconds() < seconds; op++ {
		root := tr.begin(0, op, "bench", "request")
		s := cl.traced(tr, root, op, url, body, n)
		s.ok = s.ok && hashFloats(s.phi) == want && s.rtt <= serveDeadline
		s.phi = nil
		tr.end(root)
		samples = append(samples, s)
	}
	return samples
}

func rttMS(samples []rtSample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok {
			out = append(out, ms(s.rtt))
		}
	}
	return out
}

func serveSmallTraced(cfg runConfig, tr *tracer) (*result, error) {
	r := newResult("serve_small", cfg, true)
	sys, body, err := serveSmallInput(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	v := verifier{n: sys.Len()}
	if err := warm(srv.url, body, &v, cfg.sz.serveWarmups); err != nil {
		return nil, err
	}
	base, _ := okLatencies(closedLoop(srv.url, body, v, 1, cfg.seconds/8))
	samples := tracedLoop(tr, srv.url, body, sys.Len(), v.want, cfg.seconds/4)
	counters := srv.s.ReadMetrics()
	r.put("bench.trace_overhead_share", ratio(median(rttMS(samples))-median(base), median(base)), "ratio")
	r.checkAccuracy(relError(sys, v.first, cfg.sz.errSamples))

	sh := servedShape(sys)
	if _, err := probeLibrary(tr, r, sh, forOps(cfg.sz.probeOps)); err != nil {
		return nil, err
	}
	c, err := layerProbes(tr, r, cfg, sh, v.first, false)
	if err != nil {
		return nil, err
	}
	putRoundTrip(r, samples, c)
	putServerCounters(r, counters)
	if err := waterfall(r, cfg, srv.url); err != nil {
		return nil, err
	}
	r.put("bench.fail_share", r.failShare(), "ratio")
	return r, nil
}

// waterfall is the single-request breakdown at three sizes, one caller,
// warm plan: where a request's time goes as N grows.
func waterfall(r *result, cfg runConfig, url string) error {
	cl := newClient()
	defer cl.close()
	for _, n := range cfg.sz.waterfallNs {
		sys := nbody.NewUniformSystem(n, cfg.seed+int64(n))
		body, err := requestBody(sys, "waterfall", "potentials", 0)
		if err != nil {
			return err
		}
		requests := 40000 / n
		if requests < 5 {
			requests = 5
		}
		if requests > 30 {
			requests = 30
		}
		var rtt, queue, solve []float64
		var phi []float64
		for i := 0; i <= requests; i++ {
			s := cl.traced(nil, 0, 0, url, body, n)
			r.Attempted++
			if !s.ok {
				r.Failed++
				r.fail("waterfall request at N=%d failed", n)
				continue
			}
			if i == 0 {
				phi = s.phi // the first request builds the plan and is not timed
				continue
			}
			rtt, queue, solve = append(rtt, ms(s.rtt)), append(queue, ms(s.queue)), append(solve, ms(s.solve))
		}
		if phi == nil {
			return fmt.Errorf("waterfall: no reply at N=%d", n)
		}
		c, err := requestCosts(body, sys, phi)
		if err != nil {
			return err
		}
		sp := splitRoundTrip(median(rtt), median(queue), median(solve), c)
		for _, m := range []struct {
			name  string
			value float64
			unit  string
		}{
			{"serve.rtt_ms", sp.rtt, "ms"},
			{"serve.queue_ms", sp.queue, "ms"},
			{"serve.solve_ms", sp.solve, "ms"},
			{"serve.overhead_ms", sp.overhead, "ms"},
			{"serve.overhead_share", sp.overheadShare, "ratio"},
			{"serve.overhead_unexplained_share", sp.unexplainedShare, "ratio"},
			{"serve.decode_ms", c.decodeMS, "ms"},
			{"plan.fingerprint_ms", c.fingerprintMS, "ms"},
			{"serve.encode_ms", c.encodeMS, "ms"},
			{"serve.bytes_in", float64(c.bytesIn), "bytes"},
			{"serve.bytes_out", float64(c.bytesOut), "bytes"},
		} {
			r.extra(fmt.Sprintf("%s_n%d", m.name, n), m.value, m.unit)
		}
	}
	return nil
}
