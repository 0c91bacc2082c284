package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"nbody"
	"nbody/internal/blas"
	"nbody/internal/direct"
	"nbody/internal/dpfmm"
	"nbody/internal/geom"
	"nbody/internal/kernels"
	"nbody/internal/plan"
	"nbody/internal/sched"
	"nbody/internal/serve"
	"nbody/internal/simd"
)

// microBatches is how many timing batches stand behind a micro-measurement;
// the median batch is reported.
const microBatches = 5

// perCall runs fn in microBatches batches of reps calls and returns the
// median seconds one call took.
func perCall(reps int, fn func()) float64 {
	if reps < 1 {
		reps = 1
	}
	batch := make([]float64, microBatches)
	for b := range batch {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		batch[b] = time.Since(t0).Seconds() / float64(reps)
	}
	return median(batch)
}

func randomMatrix(rng *rand.Rand, rows, cols int) blas.Matrix {
	m := blas.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// dgemmGflops is the sustained rate of C += A*B with A m-by-m and B m-by-n:
// the translation shapes of the solver (m = K integration points, n = the
// aggregated panel width).
func dgemmGflops(rng *rand.Rand, m, n, reps int) float64 {
	a, b, c := randomMatrix(rng, m, m), randomMatrix(rng, m, n), blas.NewMatrix(m, n)
	sec := perCall(reps, func() { blas.Dgemm(a, b, c) })
	return float64(blas.DgemmFlops(m, m, n)) / sec / 1e9
}

// withBackend runs fn under the named compute backend and restores the
// one that was active.
func withBackend(name string, fn func()) error {
	prev := simd.Active()
	if err := simd.SetBackend(name); err != nil {
		return err
	}
	fn()
	return simd.SetBackend(prev)
}

// microProbes measures the kernel, BLAS, scheduler and direct-sum layers on
// their own: the ceilings the phases of a solve are held against.
func microProbes(r *result, cfg runConfig) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	mb := cfg.sz.microBatch

	k12 := dgemmGflops(rng, 12, 128, 100*mb)
	r.put("blas.dgemm_k12x128_gflops", k12, "Gflop/s")
	r.put("blas.dgemm_k72x128_gflops", dgemmGflops(rng, 72, 128, 3*mb), "Gflop/s")
	if err := withBackend("scalar", func() {
		r.put("blas.dgemm_k12x128_gflops_scalar", dgemmGflops(rng, 12, 128, 25*mb), "Gflop/s")
	}); err != nil {
		return err
	}
	const panels = 189 // the supernode interactive-field size
	a := randomMatrix(rng, 12, 12)
	bs, cs := make([]blas.Matrix, panels), make([]blas.Matrix, panels)
	for i := range bs {
		bs[i], cs[i] = randomMatrix(rng, 12, 128), blas.NewMatrix(12, 128)
	}
	sec := perCall(mb/2, func() { blas.ParallelMultiGemm(a, bs, cs) })
	r.put("blas.multigemm_k12_gflops", float64(panels*blas.DgemmFlops(12, 12, 128))/sec/1e9, "Gflop/s")

	// Near-field kernels on box-sized particle sets.
	aos := func(n int) ([]geom.Vec3, []float64) {
		pos, q := make([]geom.Vec3, n), make([]float64, n)
		for i := range pos {
			pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			q[i] = rng.Float64()
		}
		return pos, q
	}
	soa := func(n int) (xs, ys, zs, qs []float64) {
		xs, ys, zs, qs = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i], ys[i], zs[i], qs[i] = rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
		}
		return
	}
	minter := func(interactions int, sec float64) float64 { return float64(interactions) / sec / 1e6 }

	pa, qa := aos(8)
	pb, qb := aos(8)
	phiA, phiB := make([]float64, 8), make([]float64, 8)
	sec = perCall(500*mb, func() { kernels.Pairwise(pa, qa, phiA, pb, qb, phiB) })
	r.put("kernels.pairwise_minter_s", minter(8*8, sec), "Minter/s")

	xs, ys, zs, qs := soa(64)
	sx, sy, sz, sq := soa(64)
	phi := make([]float64, 64)
	sec = perCall(30*mb, func() { kernels.WithinPotentialSoA(xs, ys, zs, qs, phi) })
	r.put("kernels.within_soa_minter_s", minter(64*63/2, sec), "Minter/s")
	sec = perCall(15*mb, func() { kernels.AccumulatePotentialSoA(xs, ys, zs, phi, sx, sy, sz, sq) })
	accSoA := minter(64*64, sec)
	r.put("kernels.accumulate_soa_minter_s", accSoA, "Minter/s")

	ta, _ := aos(64)
	sb, sqb := aos(64)
	acc := make([]geom.Vec3, 64)
	sec = perCall(8*mb, func() { kernels.AccumulateForce(ta, acc, sb, sqb) })
	r.put("kernels.accumulate_force_minter_s", minter(64*64, sec), "Minter/s")

	sec = perCall(10*mb, func() { sched.Run(1024, func(int) {}) })
	r.put("sched.run_overhead_us", sec*1e6, "us")

	// The plain single-threaded baseline of the same problem.
	dp, dq := aos(cfg.sz.directN)
	times := make([]float64, 3)
	for i := range times {
		t0 := time.Now()
		_ = direct.Potentials(dp, dq)
		times[i] = time.Since(t0).Seconds()
	}
	r.put("direct.minter_s", minter(cfg.sz.directN*(cfg.sz.directN-1), median(times)), "Minter/s")

	// The paper's Table 3 framing: each dominant phase as a fraction of the
	// kernel it is built on.
	r.put("core.t2_over_kernel", ratio(r.Metrics["core.t2_gflops"].Value, k12), "ratio")
	r.put("core.near_over_kernel", ratio(r.Metrics["core.near_minter_s"].Value, accSoA), "ratio")
	return nil
}

// requestBody marshals the solve request for a system.
func requestBody(sys *nbody.System, tenant, compute string, deadlineMS int64) ([]byte, error) {
	req := serve.SolveRequest{
		Tenant:     tenant,
		Positions:  make([][3]float64, sys.Len()),
		Charges:    sys.Charges,
		Compute:    compute,
		Accuracy:   "fast",
		DeadlineMS: deadlineMS,
	}
	for i, p := range sys.Positions {
		req.Positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return json.Marshal(req)
}

// costs are the stand-ins for the steps of the request path the server does
// not report: each is timed on the public types with the same bytes.
type costs struct {
	decodeMS, encodeMS, fingerprintMS float64
	bytesIn, bytesOut                 int
}

// requestCosts times decode, fingerprint and encode for one request body
// and the response that carries phi.
func requestCosts(body []byte, sys *nbody.System, phi []float64) (costs, error) {
	c := costs{bytesIn: len(body)}
	reps := 1 + 200_000/(sys.Len()+1) // about the same bytes per batch at every N
	var derr error
	c.decodeMS = 1e3 * perCall(reps/20+1, func() {
		var req serve.SolveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return c, derr
	}
	c.fingerprintMS = 1e3 * perCall(reps/4+1, func() { _ = plan.Fingerprint(sys.Positions) })
	resp := serve.SolveResponse{N: sys.Len(), Phi: phi, Backend: simd.Active(), CacheHit: true, QueueNS: 12345, SolveNS: 1234567}
	c.encodeMS = 1e3 * perCall(reps/20+1, func() {
		out, err := json.Marshal(&resp)
		if err != nil {
			derr = err
		}
		c.bytesOut = len(out)
	})
	return c, derr
}

// planKey resolves the plan a server would run a potentials request of this
// system on, exactly as serve does: fingerprint, then the planner.
func planKey(planner *plan.Planner, sys *nbody.System) plan.Key {
	sk := plan.ShapeKey{N: sys.Len(), Dist: plan.Fingerprint(sys.Positions), Accuracy: "fast"}
	pl, _ := planner.Resolve(sk, plan.Request{MaxDepth: 6})
	return plan.Key{Shape: sk, Plan: pl}
}

// serveLayerProbes times the pieces of the request path that are public on
// their own, at the shape's size: decode, encode, fingerprint, plan
// resolution and checkout, and a dispatch of nothing.
func serveLayerProbes(r *result, cfg runConfig, sys *nbody.System, phi []float64, body []byte) (costs, error) {
	c, err := requestCosts(body, sys, phi)
	if err != nil {
		return c, err
	}
	r.put("serve.decode_ms", c.decodeMS, "ms")
	r.put("serve.encode_ms", c.encodeMS, "ms")
	r.put("serve.bytes_in", float64(c.bytesIn), "bytes")
	r.put("serve.bytes_out", float64(c.bytesOut), "bytes")
	r.put("plan.fingerprint_ms", c.fingerprintMS, "ms")

	mb := cfg.sz.microBatch
	planner := plan.NewPlanner(6)
	key := planKey(planner, sys)
	r.put("plan.resolve_us", 1e6*perCall(50*mb, func() { _, _ = planner.Resolve(key.Shape, plan.Request{MaxDepth: 6}) }), "us")

	cache := serve.NewPlanCache(8, nbody.RetryPolicy{})
	t0 := time.Now()
	p, _, err := cache.Acquire(key)
	if err != nil {
		return c, fmt.Errorf("plan cache: %w", err)
	}
	r.put("serve.plan_cold_ms", ms(time.Since(t0)), "ms")
	cache.Release(p)
	var aerr error
	r.put("serve.plan_warm_us", 1e6*perCall(50*mb, func() {
		p, _, err := cache.Acquire(key)
		if err != nil {
			aerr = err
			return
		}
		cache.Release(p)
	}), "us")
	if aerr != nil {
		return c, fmt.Errorf("plan cache: %w", aerr)
	}

	disp, err := serve.NewDispatcher(serve.PolicyFair, 2, 16, 2)
	if err != nil {
		return c, err
	}
	defer disp.Close()
	ctx := context.Background()
	r.put("serve.dispatch_us", 1e6*perCall(5*mb, func() {
		if err := disp.Do(ctx, "t", func(context.Context) error { return nil }); err != nil {
			aerr = err
		}
	}), "us")
	return c, aerr
}

// layerProbes measures, at the workload's reference shape, every layer the
// workload's own traced section did not: the kernel ceilings, the plan and
// serve pieces, and (unless the workload did so itself) a served round trip
// of the shape split into queue, solve and overhead.
func layerProbes(tr *tracer, r *result, cfg runConfig, sh shape, phi []float64, serveRoundTrip bool) (costs, error) {
	if err := microProbes(r, cfg); err != nil {
		return costs{}, err
	}
	compute := "potentials"
	if sh.step {
		compute = "accelerations"
	}
	body, err := requestBody(sh.sys, "probe", compute, 0)
	if err != nil {
		return costs{}, err
	}
	c, err := serveLayerProbes(r, cfg, sh.sys, phi, body)
	if err != nil || !serveRoundTrip {
		return c, err
	}
	srv, err := startServer()
	if err != nil {
		return c, err
	}
	defer srv.stop()
	cl := newClient()
	defer cl.close()
	var samples []rtSample
	for i := 0; i <= cfg.sz.probeRequests; i++ {
		s := cl.traced(tr, 0, i, srv.url, body, sh.sys.Len())
		if i == 0 && s.ok {
			continue // builds the plan
		}
		samples = append(samples, s)
	}
	putRoundTrip(r, samples, c)
	putServerCounters(r, srv.s.ReadMetrics())
	return c, nil
}

// solveExtras are the per-layer metrics that exist on solve_uniform only:
// the scalar backend, the Barnes-Hut baseline and the paper's machine model.
func solveExtras(r *result, cfg runConfig, sh shape) error {
	var serr error
	if err := withBackend("scalar", func() {
		e, err := sh.newEngine(false)
		if err != nil {
			serr = err
			return
		}
		lat, failed := okLatencies(runOps(e, forOps(cfg.sz.scalarOps), e.plainOp))
		if failed > 0 {
			serr = fmt.Errorf("%d scalar ops failed", failed)
		}
		r.extra("nbody.solve_scalar_ms", median(lat), "ms")
	}); err != nil {
		return err
	}
	if serr != nil {
		return serr
	}

	t0 := time.Now()
	if _, err := nbody.NewBarnesHut(sh.box, 0.6).Potentials(sh.sys); err != nil {
		return fmt.Errorf("barnes-hut: %w", err)
	}
	r.extra("bh.solve_ms", ms(time.Since(t0)), "ms")

	sys := nbody.NewUniformSystem(cfg.sz.dpN, cfg.seed)
	dp, err := nbody.NewDataParallel(cfg.sz.dpNodes, unitCube(), nbody.Options{Accuracy: nbody.Fast, Depth: cfg.sz.dpDepth}, dpfmm.LinearizedAliased)
	if err != nil {
		return fmt.Errorf("data-parallel: %w", err)
	}
	t0 = time.Now()
	if _, err := dp.Potentials(sys); err != nil {
		return fmt.Errorf("data-parallel: %w", err)
	}
	r.extra("dpfmm.wall_ms", ms(time.Since(t0)), "ms")
	rep := dp.Report("k12", sys.Len())
	r.extra("dpfmm.cycles_per_particle_k12", rep.CyclesPerParticle(), "cycles")
	r.extra("dpfmm.efficiency_pct_k12", 100*rep.Efficiency(), "%")
	return nil
}
