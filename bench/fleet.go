package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nbody"
	"nbody/internal/serve"
)

// arrival is one request of the open loop: when it is due, counted from the
// start of the run, and which tenant sends it.
type arrival struct {
	due   time.Duration
	heavy bool
}

// schedule makes the seeded arrivals of both tenants over `seconds`. Each
// tenant is a Poisson process conditioned on its count: exactly
// round(rate*seconds) arrivals at independent uniform times, so every seed
// offers the same load and only the spacing changes.
func schedule(seed int64, seconds, lightRate, heavyRate float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	for _, t := range []struct {
		rate  float64
		heavy bool
	}{{lightRate, false}, {heavyRate, true}} {
		for i := int(math.Round(t.rate * seconds)); i > 0; i-- {
			out = append(out, arrival{due: time.Duration(rng.Float64() * seconds * float64(time.Second)), heavy: t.heavy})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// tenantInput is one tenant's request: always the same system, so every
// reply of a tenant must be bitwise the same.
type tenantInput struct {
	sys  *nbody.System
	body []byte
	v    verifier // holds the first reply once the fleet is warm
}

// fleetInput is the generated input of fleet_open.
type fleetInput struct{ light, heavy tenantInput }

func (in *fleetInput) tenant(heavy bool) *tenantInput {
	if heavy {
		return &in.heavy
	}
	return &in.light
}

func newFleetInput(cfg runConfig) (*fleetInput, error) {
	in := &fleetInput{}
	for _, t := range []struct {
		dst    *tenantInput
		n      int
		seed   int64
		tenant string
	}{{&in.light, cfg.sz.lightN, cfg.seed, "light"}, {&in.heavy, cfg.sz.heavyN, cfg.seed + 1, "heavy"}} {
		sys := nbody.NewUniformSystem(t.n, t.seed)
		body, err := requestBody(sys, t.tenant, "potentials", cfg.sz.deadlineMS)
		if err != nil {
			return nil, err
		}
		*t.dst = tenantInput{sys: sys, body: body, v: verifier{n: t.n, every: cfg.sz.fullCheckEvery}}
	}
	return in, nil
}

// warmFleet sends each shape to each replica directly and once through the
// gateway, so every plan is built and every connection open.
func warmFleet(f *fleet, in *fleetInput) error {
	for _, heavy := range []bool{false, true} {
		t := in.tenant(heavy)
		for _, rep := range f.replicas {
			if err := warm(rep.url, t.body, &t.v, 1); err != nil {
				return err
			}
		}
		if err := warm(f.url, t.body, &t.v, 1); err != nil {
			return err
		}
	}
	return nil
}

// sent is the record of one arrival.
type sent struct {
	heavy        bool
	due          time.Duration // from the start of the run
	start, done  time.Duration // when the sender sent it and had the whole reply
	queue, solve time.Duration // the server's own report; traced runs only
	ok           bool
}

func (s sent) late() time.Duration    { return s.start - s.due }
func (s sent) latency() time.Duration { return s.done - s.due }

// openLoop sends the schedule regardless of how the fleet keeps up: the
// senders (one connection each) take arrivals in order, wait until each is
// due and send it. A request is timed from when it was due, so the wait a
// stall imposes on later requests counts. With decode set every reply is
// decoded for the server's queue_ns and solve_ns.
func openLoop(url string, in *fleetInput, arrivals []arrival, senders int, deadline time.Duration, decode bool) []sent {
	out := make([]sent, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(light, heavy verifier) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				t, v := in.tenant(a.heavy), &light
				if a.heavy {
					v = &heavy
				}
				rec := sent{heavy: a.heavy, due: a.due, start: time.Since(start)}
				status, err := cl.post(url, t.body)
				rec.done = time.Since(start)
				rec.ok = err == nil && v.check(status, cl.reply.Bytes()) && rec.latency() <= deadline
				if rec.ok && decode {
					var resp serve.SolveResponse
					if json.Unmarshal(cl.reply.Bytes(), &resp) == nil {
						rec.queue, rec.solve = time.Duration(resp.QueueNS), time.Duration(resp.SolveNS)
					}
				}
				out[i] = rec
			}
		}(in.light.v, in.heavy.v)
	}
	wg.Wait()
	return out
}

// loadStats summarises an open-loop run.
type loadStats struct {
	lightMS, heavyMS, lateMS []float64 // latency from the due time of successful requests; lateness of all
	failed                   int
	particles                int64
}

func summarise(recs []sent, in *fleetInput) loadStats {
	var st loadStats
	for _, rec := range recs {
		st.lateMS = append(st.lateMS, ms(rec.late()))
		if !rec.ok {
			st.failed++
			continue
		}
		st.particles += int64(in.tenant(rec.heavy).sys.Len())
		if rec.heavy {
			st.heavyMS = append(st.heavyMS, ms(rec.latency()))
		} else {
			st.lightMS = append(st.lightMS, ms(rec.latency()))
		}
	}
	return st
}

func (cfg runConfig) arrivals(seed int64, seconds float64) []arrival {
	return schedule(seed, seconds, cfg.sz.lightRate, cfg.sz.heavyRate)
}

func (cfg runConfig) deadline() time.Duration {
	return time.Duration(cfg.sz.deadlineMS) * time.Millisecond
}

func fleetOpenTimed(cfg runConfig) (*result, error) {
	r := newResult("fleet_open", cfg, false)
	in, err := newFleetInput(cfg)
	if err != nil {
		return nil, err
	}
	var t timed
	for i := 0; i < cfg.sz.setups; i++ {
		fresh, err := newFleetInput(cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		f, err := startFleet(2)
		if err != nil {
			return nil, err
		}
		err = warmFleet(f, fresh)
		t.setupS = append(t.setupS, time.Since(t0).Seconds())
		f.stop()
		if err != nil {
			return nil, err
		}
	}

	f, err := startFleet(2)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if err := warmFleet(f, in); err != nil {
		return nil, err
	}
	if err := warm(f.url, in.light.body, &in.light.v, cfg.sz.serveWarmups); err != nil {
		return nil, err
	}
	arrivals := cfg.arrivals(cfg.seed, cfg.seconds)
	sec := beginSection(cfg.seconds)
	recs := openLoop(f.url, in, arrivals, cfg.sz.senders, cfg.deadline(), false)
	t.use = sec.end()
	st := summarise(recs, in)
	for _, rec := range recs {
		// The latency metrics are over the light tenant, from the due time.
		t.ops = append(t.ops, opRec{at: rec.due, latencyMS: ms(rec.latency()), ok: rec.ok, unlike: rec.heavy})
	}
	t.particles = st.particles
	t.seeded = relError(in.light.sys, in.light.v.first, cfg.sz.errSamples)
	if t.relErr, err = servedProbeError(f.url, cfg.sz.lightN, cfg.sz); err != nil {
		return nil, err
	}
	r.Failed = st.failed
	r.putEndToEnd(t)
	r.checkAccuracy(relError(in.heavy.sys, in.heavy.v.first, cfg.sz.errSamples))
	if st.failed > 0 {
		r.fail("%d of %d requests failed, were refused, late or not bitwise equal to the first reply", st.failed, len(recs))
	}
	r.note("generator lateness p50 %.3f ms, p90 %.3f ms; heavy tenant p50 %.2f ms over %d requests",
		median(st.lateMS), percentile(sortedCopy(st.lateMS), 90), median(st.heavyMS), len(st.heavyMS))
	return r, nil
}

// addSpans turns the records of a traced open loop into spans: the request
// from its due time, the gateway round trip from the send, and the server's
// reported queue wait and solve inside it.
func addSpans(tr *tracer, recs []sent, origin int64) {
	for op, rec := range recs {
		if !rec.ok {
			continue
		}
		root := tr.attach(0, op, "bench", "request", origin+int64(rec.due), rec.latency())
		call := tr.attach(root, op, "gw", "POST /v1/solve", origin+int64(rec.start), rec.done-rec.start)
		at := origin + int64(rec.start) + int64(rec.done-rec.start-rec.queue-rec.solve)/2
		tr.attach(call, op, "serve", "queue", at, rec.queue)
		tr.attach(call, op, "serve", "solve", at+int64(rec.queue), rec.solve)
	}
}

func completed(f *fleet) []int64 {
	out := make([]int64, len(f.replicas))
	for i, rep := range f.replicas {
		out[i] = rep.s.ReadMetrics().Admission.Completed
	}
	return out
}

func fleetOpenTraced(cfg runConfig, tr *tracer) (*result, error) {
	r := newResult("fleet_open", cfg, true)
	in, err := newFleetInput(cfg)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(2)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if err := warmFleet(f, in); err != nil {
		return nil, err
	}
	if err := warm(f.url, in.light.body, &in.light.v, cfg.sz.serveWarmups); err != nil {
		return nil, err
	}

	base := summarise(openLoop(f.url, in, cfg.arrivals(cfg.seed, cfg.seconds/8), cfg.sz.senders, cfg.deadline(), false), in)
	before := completed(f)
	origin := tr.now()
	recs := openLoop(f.url, in, cfg.arrivals(cfg.seed+1, cfg.seconds/4), cfg.sz.senders, cfg.deadline(), true)
	addSpans(tr, recs, origin)
	after := completed(f)
	st := summarise(recs, in)
	r.Attempted, r.Failed = len(recs)+base.failed, st.failed+base.failed
	if r.Failed > 0 {
		r.fail("%d open-loop requests failed", r.Failed)
	}
	r.put("bench.trace_overhead_share", ratio(median(st.lightMS)-median(base.lightMS), median(base.lightMS)), "ratio")
	light, heavy, late := sortedCopy(st.lightMS), sortedCopy(st.heavyMS), sortedCopy(st.lateMS)
	r.extra("gw.light_p90_ms", percentile(light, 90), "ms")
	r.extra("gw.light_p99_ms", percentile(light, 99), "ms")
	r.extra("gw.heavy_p50_ms", percentile(heavy, 50), "ms")
	r.extra("gw.heavy_p95_ms", percentile(heavy, 95), "ms")
	r.extra("gw.gen_late_p50_ms", percentile(late, 50), "ms")
	r.extra("gw.gen_late_p95_ms", percentile(late, 95), "ms")
	var most, total int64
	for i := range after {
		d := after[i] - before[i]
		total += d
		if d > most {
			most = d
		}
	}
	r.extra("gw.replica_share_max", ratio(float64(most), float64(total)), "ratio")
	doc, err := gatewayCounters(f.url)
	if err != nil {
		return nil, err
	}
	r.extra("gw.failovers", float64(doc.Gateway.Failovers), "count")
	r.extra("gw.hedges_fired", float64(doc.Gateway.HedgesFired), "count")
	r.extra("gw.ejections", float64(doc.Gateway.Ejections), "count")
	counters := []serve.Metrics{f.replicas[0].s.ReadMetrics(), f.replicas[1].s.ReadMetrics()}
	r.checkAccuracy(relError(in.light.sys, in.light.v.first, cfg.sz.errSamples))
	r.checkAccuracy(relError(in.heavy.sys, in.heavy.v.first, cfg.sz.errSamples))

	// The fleet spends most of its CPU on the heavy tenant, so the library
	// and serve layers are probed at the heavy shape.
	sh := servedShape(in.heavy.sys)
	if _, err := probeLibrary(tr, r, sh, forOps(cfg.sz.probeOps)); err != nil {
		return nil, err
	}
	c, err := layerProbes(tr, r, cfg, sh, in.heavy.v.first, false)
	if err != nil {
		return nil, err
	}
	cl := newClient()
	defer cl.close()
	var direct []rtSample
	for i := 0; i < cfg.sz.probeRequests; i++ {
		direct = append(direct, cl.traced(tr, 0, i, f.replicas[0].url, in.heavy.body, in.heavy.sys.Len()))
	}
	putRoundTrip(r, direct, c)
	putServerCounters(r, counters...)

	for _, t := range []*tenantInput{&in.light, &in.heavy} {
		hop, err := gatewayHop(cl, f, t, cfg.sz.hopRequests)
		if err != nil {
			return nil, err
		}
		r.extra(fmt.Sprintf("gw.hop_ms_n%d", t.sys.Len()), hop, "ms")
	}
	r.extra("gw.max_rate_ok_rps", rateLadder(cfg, f, in), "1/s")
	r.put("bench.fail_share", r.failShare(), "ratio")
	return r, nil
}

// gatewayHop is what the proxy adds: the median round trip through the
// gateway minus the median straight to a replica, same bytes, one caller,
// alternating targets.
func gatewayHop(cl *client, f *fleet, t *tenantInput, requests int) (float64, error) {
	var via, direct []float64
	for i := 0; i < 2*requests; i++ {
		url, dst := f.url, &via
		if i%2 == 1 {
			url, dst = f.replicas[0].url, &direct
		}
		t0 := time.Now()
		status, err := cl.post(url, t.body)
		d := time.Since(t0)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("gateway hop probe: status %d: %v", status, err)
		}
		*dst = append(*dst, ms(d))
	}
	return median(via) - median(direct), nil
}

// lateGrowthLimitMS is how much the generator's median lateness may rise
// from the first half of a rung to the second before the rung counts as
// building a backlog.
const lateGrowthLimitMS = 5

// rateLadder offers the tenant mix at rising rates and returns the highest
// rate the fleet met: light p90 within the limit, nothing failed and no
// growing lateness. It stops at the first rung that misses. The answer is
// one of a few fixed rates, which is why it is no end-to-end metric.
func rateLadder(cfg runConfig, f *fleet, in *fleetInput) float64 {
	best := 0.0
	mix := cfg.sz.lightRate + cfg.sz.heavyRate
	for i, rate := range cfg.sz.ladderRates {
		arrivals := schedule(cfg.seed+int64(100+i), cfg.sz.ladderSeconds, rate*cfg.sz.lightRate/mix, rate*cfg.sz.heavyRate/mix)
		recs := openLoop(f.url, in, arrivals, cfg.sz.senders, cfg.deadline(), false)
		st := summarise(recs, in)
		half := len(st.lateMS) / 2
		growing := half > 0 && median(st.lateMS[half:])-median(st.lateMS[:half]) > lateGrowthLimitMS
		if st.failed > 0 || growing || percentile(sortedCopy(st.lightMS), 90) > cfg.sz.ladderP90LimitMS {
			break
		}
		best = rate
	}
	return best
}
