package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"nbody"
	"nbody/internal/blas"
	"nbody/internal/core"
	"nbody/internal/sched"
	"nbody/internal/tree"
)

// shape is one reference problem: a system, the domain it is solved in and
// the solver configuration. The two library workloads run their shape as
// the workload; the serving workloads probe the library at the shape their
// requests have.
type shape struct {
	sys  *nbody.System
	box  nbody.Box
	opts nbody.Options
	step bool    // leapfrog steps with forces; otherwise potential solves
	dt   float64 // step only
}

func unitCube() nbody.Box { return nbody.Box{Center: nbody.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1} }

func cloneSystem(s *nbody.System) *nbody.System {
	return &nbody.System{
		Positions: append([]nbody.Vec3(nil), s.Positions...),
		Charges:   append([]float64(nil), s.Charges...),
	}
}

// engine is one constructed solver for a shape, with the closure state one
// op needs. Steps move the particles, so an engine owns a copy of the
// system.
type engine struct {
	sys    *nbody.System
	solver *nbody.Anderson
	sim    *nbody.Simulation
	phi    []float64   // output of a potential solve
	inner  *timedAccel // non-nil on a traced step engine

	buildTime time.Duration // NewAnderson
	firstTime time.Duration // first solve (NewSimulation solves once)
}

// timedAccel stands between a Simulation and its solver in the traced pass
// and times the solve inside each Step from outside.
type timedAccel struct {
	a     *nbody.Anderson
	start time.Time
	took  time.Duration
}

func (t *timedAccel) Accelerations(s *nbody.System) ([]float64, []nbody.Vec3, error) {
	t.start = time.Now()
	phi, acc, err := t.a.Accelerations(s)
	t.took = time.Since(t.start)
	return phi, acc, err
}

func (t *timedAccel) AccelerationsInto(phi []float64, acc []nbody.Vec3, s *nbody.System) error {
	t.start = time.Now()
	err := t.a.AccelerationsInto(phi, acc, s)
	t.took = time.Since(t.start)
	return err
}

// newEngine constructs the solver and performs the first solve.
func (sh shape) newEngine(traced bool) (*engine, error) {
	e := &engine{sys: cloneSystem(sh.sys)}
	t0 := time.Now()
	solver, err := nbody.NewAnderson(sh.box, sh.opts)
	if err != nil {
		return nil, err
	}
	e.solver = solver
	e.buildTime = time.Since(t0)
	t1 := time.Now()
	if sh.step {
		var acc nbody.Accelerator = solver
		if traced {
			e.inner = &timedAccel{a: solver}
			acc = e.inner
		}
		e.sim, err = nbody.NewSimulation(e.sys, nil, acc, sh.dt)
	} else {
		e.phi = make([]float64, e.sys.Len())
		err = solver.PotentialsInto(e.phi, e.sys)
	}
	if err != nil {
		return nil, err
	}
	e.firstTime = time.Since(t1)
	return e, nil
}

// op performs one operation: a leapfrog step or a potential solve.
func (e *engine) op() error {
	if e.sim != nil {
		return e.sim.Step(1)
	}
	return e.solver.PotentialsInto(e.phi, e.sys)
}

func (e *engine) opName() string {
	if e.sim != nil {
		return "Simulation.Step"
	}
	return "Anderson.PotentialsInto"
}

// potentials returns the potentials of the engine's current particle
// positions, for the verification against direct summation.
func (e *engine) potentials() ([]float64, error) {
	if e.sim != nil {
		return e.solver.Potentials(e.sys)
	}
	return e.phi, nil
}

// setupTimes constructs the shape `n` times from nothing up to and
// including the first completed op and returns the seconds each took.
func (sh shape) setupTimes(n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := sh.newEngine(false)
		if err != nil {
			return nil, err
		}
		if e.sim != nil {
			if err := e.op(); err != nil {
				return nil, err
			}
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// libWorkload is an in-process library workload.
type libWorkload struct {
	name  string
	shape func(cfg runConfig) shape
}

var solveUniform = libWorkload{
	name: "solve_uniform",
	shape: func(cfg runConfig) shape {
		return shape{
			sys:  nbody.NewUniformSystem(cfg.sz.solveN, cfg.seed),
			box:  unitCube(),
			opts: nbody.Options{Accuracy: nbody.Fast, Depth: cfg.sz.solveDepth},
		}
	},
}

var stepPlummer = libWorkload{
	name: "step_plummer",
	shape: func(cfg runConfig) shape {
		sys := nbody.NewPlummerSystem(cfg.sz.plummerN, cfg.seed)
		// The domain is the unit cube the generator fills, times 1.5, not
		// the particles' own bounding box: that follows the outermost
		// particle, so the leaf size, and with it the near-field work,
		// would change with the seed by tens of percent.
		box := unitCube()
		box.Side *= 1.5
		// dt is tiny on purpose: the trajectory is stationary, no particle
		// leaves the box and every step does the same work.
		return shape{sys: sys, box: box, opts: nbody.Options{Depth: cfg.sz.plummerDepth}, step: true, dt: cfg.sz.plummerDT}
	},
}

// runOps performs ops until done says so (at least one op), checking every
// potential solve bitwise against the first: an op that breaks the
// repeat-solve contract (identical input, identical bits) has failed.
func runOps(e *engine, done func(ops int, elapsed time.Duration) bool, each func(op int) (time.Duration, error)) []opRec {
	var ops []opRec
	var want uint64
	start := time.Now()
	for op := 0; ; op++ {
		rec := opRec{at: time.Since(start)}
		d, err := each(op)
		rec.latencyMS, rec.ok = ms(d), err == nil
		if rec.ok && e.sim == nil {
			h := hashFloats(e.phi)
			if op == 0 {
				want = h
			}
			rec.ok = h == want
		}
		ops = append(ops, rec)
		if done(op+1, time.Since(start)) {
			return ops
		}
	}
}

// okLatencies returns the latencies of the successful operations and how
// many failed.
func okLatencies(ops []opRec) (lat []float64, failed int) {
	for _, op := range ops {
		if op.ok {
			lat = append(lat, op.latencyMS)
		} else {
			failed++
		}
	}
	return lat, failed
}

// forSeconds stops a section once it has run for the given time.
func forSeconds(seconds float64) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed.Seconds() >= seconds }
}

// forOps stops a section after exactly n ops.
func forOps(n int) func(int, time.Duration) bool {
	return func(ops int, _ time.Duration) bool { return ops >= n }
}

// plainOp times one op and nothing else.
func (e *engine) plainOp(int) (time.Duration, error) {
	t0 := time.Now()
	err := e.op()
	return time.Since(t0), err
}

func (w libWorkload) timed(cfg runConfig) (*result, error) {
	r := newResult(w.name, cfg, false)
	sh := w.shape(cfg)
	var t timed
	var err error
	if t.setupS, err = sh.setupTimes(cfg.sz.setups); err != nil {
		return nil, err
	}
	e, err := sh.newEngine(false)
	if err != nil {
		return nil, err
	}
	e0 := e.energy()
	for i := 0; i < cfg.sz.warmups; i++ {
		if err := e.op(); err != nil {
			return nil, err
		}
	}
	sec := beginSection(cfg.seconds)
	t.ops = runOps(e, forSeconds(cfg.seconds), e.plainOp)
	t.use = sec.end()
	lat, failed := okLatencies(t.ops)
	t.particles = int64(len(lat)) * int64(e.sys.Len())

	phi, err := e.potentials()
	if err != nil {
		return nil, err
	}
	t.seeded = relError(e.sys, phi, cfg.sz.errSamples)
	probe := cfg
	probe.seed = probeSeed
	probeSys := w.shape(probe).sys
	probePhi, err := e.solver.Potentials(probeSys)
	if err != nil {
		return nil, err
	}
	t.relErr = probeError(probeSys, probePhi, cfg.sz)
	r.Failed = failed
	r.putEndToEnd(t)
	r.checkDrift(e, e0)
	if failed > 0 {
		r.fail("%d of %d ops failed or broke the bitwise repeat-solve contract", failed, len(t.ops))
	}
	return r, nil
}

// energy is the total energy of a step engine, 0 for a solve engine.
func (e *engine) energy() float64 {
	if e.sim == nil {
		return 0
	}
	_, _, total := e.sim.Energy()
	return total
}

// drift is |dE/E0| since e0 was read.
func (e *engine) drift(e0 float64) float64 {
	if e.sim == nil || e0 == 0 {
		return 0
	}
	return math.Abs((e.energy() - e0) / e0)
}

func (r *result) checkDrift(e *engine, e0 float64) {
	if d := e.drift(e0); !(d <= maxEnergyDrift) {
		r.fail("energy drift %.3e exceeds %.1e", d, maxEnergyDrift)
	}
}

// The phases of one shared-memory solve, in execution order, with the name
// of the per-layer metric each reports under.
var corePhases = []struct {
	phase  core.Phase
	metric string
}{
	{core.PhaseSort, "core.sort_ms"},
	{core.PhaseLeafOuter, "core.leaf_outer_ms"},
	{core.PhaseUpward, "core.t1_ms"},
	{core.PhaseT2, "core.t2_ms"},
	{core.PhaseT3, "core.t3_ms"},
	{core.PhaseEvalLocal, "core.eval_local_ms"},
	{core.PhaseNear, "core.near_field_ms"},
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// libProfile is what the traced library section measured beyond the
// metrics it put into the result.
type libProfile struct {
	opMS    float64 // median traced op time
	engine  *engine
	e0      float64 // energy before the first traced op
	stepMS  []float64
	solveMS []float64
}

// probeLibrary is the traced library section: ops on a fresh engine until
// done, each under a span with the program's own phase times attached as
// children. It reports the nbody, core, blas-count and sched-utilisation
// metrics of the shape.
func probeLibrary(tr *tracer, r *result, sh shape, done func(int, time.Duration) bool) (*libProfile, error) {
	e, err := sh.newEngine(true)
	if err != nil {
		return nil, err
	}
	r.put("nbody.new_anderson_ms", ms(e.buildTime), "ms")
	r.put("nbody.first_solve_ms", ms(e.firstTime), "ms")
	prof := &libProfile{engine: e, e0: e.energy()}

	var (
		opMS, apiSelf, cover, t2Gf, nearGf, nearMinter []float64
		phaseMS                                        = make([][]float64, len(corePhases))
		last                                           core.Stats
		countsMoved                                    bool
	)
	blas.ResetCounters()
	blas.EnableCounters(true)
	sched.EnableStats(true)
	sched.ResetStats()
	defer blas.EnableCounters(false)
	defer sched.EnableStats(false)

	sectionStart := time.Now()
	lat, failed := okLatencies(runOps(e, done, func(op int) (time.Duration, error) {
		before := *e.solver.Stats()
		root := tr.begin(0, op, "bench", "op")
		call := tr.begin(root, op, "nbody", e.opName())
		t0 := time.Now()
		err := e.op()
		wall := time.Since(t0)
		tr.end(call)
		d := e.solver.Stats().Diff(&before)

		solveSpan, solveWall := call, wall
		if e.inner != nil {
			// The solve is a child of the Step; what is left is leapfrog.
			solveWall = e.inner.took
			solveSpan = tr.attach(call, op, "nbody", "Anderson.AccelerationsInto", tr.startOf(call)+int64(e.inner.start.Sub(t0)), solveWall)
			prof.stepMS = append(prof.stepMS, ms(wall))
			prof.solveMS = append(prof.solveMS, ms(solveWall))
		}
		at := tr.startOf(solveSpan)
		for i, p := range corePhases {
			phaseMS[i] = append(phaseMS[i], ms(d.Time[p.phase]))
			tr.attach(solveSpan, op, "core", p.phase.String(), at, d.Time[p.phase])
			at += int64(d.Time[p.phase])
		}
		tr.end(root)

		opMS = append(opMS, ms(wall))
		apiSelf = append(apiSelf, ms(solveWall-d.TotalTime()))
		cover = append(cover, ratio(float64(d.TotalTime()), float64(wall)))
		t2Gf = append(t2Gf, ratio(float64(d.Flops[core.PhaseT2]), d.Time[core.PhaseT2].Seconds())/1e9)
		nearGf = append(nearGf, ratio(float64(d.Flops[core.PhaseNear]), d.Time[core.PhaseNear].Seconds())/1e9)
		nearMinter = append(nearMinter, ratio(float64(d.NearPairs), d.Time[core.PhaseNear].Seconds())/1e6)
		if op > 0 && (d.T2Count != last.T2Count || d.NearPairs != last.NearPairs || d.TotalFlops() != last.TotalFlops()) {
			countsMoved = true
		}
		last = d
		return wall, err
	}))
	sectionWall := time.Since(sectionStart)
	n := float64(len(lat) + failed)
	if failed > 0 {
		r.fail("%d traced library ops failed", failed)
	}
	r.Failed += failed
	r.Attempted += int(n)

	for i, p := range corePhases {
		r.put(p.metric, median(phaseMS[i]), "ms")
	}
	r.put("nbody.api_self_ms", median(apiSelf), "ms")
	r.put("core.phase_cover", median(cover), "ratio")
	r.put("core.t2_gflops", median(t2Gf), "Gflop/s")
	r.put("core.near_field_gflops", median(nearGf), "Gflop/s")
	r.put("core.near_minter_s", median(nearMinter), "Minter/s")
	r.put("core.t2_count", float64(last.T2Count), "count")
	r.put("core.near_pairs", float64(last.NearPairs), "count")
	r.put("core.flops", float64(last.TotalFlops()), "count")
	if countsMoved {
		r.note("core.t2_count, core.near_pairs or core.flops differed between ops; the last op's are reported")
	}

	bc := blas.ReadCounters()
	r.put("blas.gemm_calls", float64(bc.GemmCalls)/n, "count")
	r.put("blas.gemm_flops", float64(bc.GemmFlops)/n, "count")
	var busy time.Duration
	var jobs int64
	stats := sched.ReadStats()
	for _, s := range stats {
		busy += s.Busy
		jobs += s.Jobs
	}
	r.put("sched.busy_share", ratio(float64(busy), float64(len(stats))*float64(sectionWall)), "ratio")
	r.put("sched.jobs_per_op", float64(jobs)/n, "count")

	depth := e.solver.Depth()
	h, err := tree.NewHierarchy(sh.box, depth)
	if err != nil {
		return nil, err
	}
	part := make([]float64, 5)
	for i := range part {
		t0 := time.Now()
		_ = core.NewPartition(h, e.sys.Positions)
		part[i] = ms(time.Since(t0))
	}
	r.put("core.partition_ms", median(part), "ms")

	prof.opMS = median(opMS)
	return prof, nil
}

func (w libWorkload) traced(cfg runConfig, tr *tracer) (*result, error) {
	r := newResult(w.name, cfg, true)
	sh := w.shape(cfg)

	// The same ops untraced, in this process, are what the traced ops are
	// held against for bench.trace_overhead_share.
	base, err := sh.newEngine(false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.sz.warmups; i++ {
		if err := base.op(); err != nil {
			return nil, err
		}
	}
	baseLat, _ := okLatencies(runOps(base, forSeconds(cfg.seconds/8), base.plainOp))
	base = nil
	runtime.GC()

	prof, err := probeLibrary(tr, r, sh, forSeconds(cfg.seconds/4))
	if err != nil {
		return nil, err
	}
	r.put("bench.trace_overhead_share", ratio(prof.opMS-median(baseLat), median(baseLat)), "ratio")
	e := prof.engine
	phi, err := e.potentials()
	if err != nil {
		return nil, err
	}
	r.checkAccuracy(relError(e.sys, phi, cfg.sz.errSamples))
	r.checkDrift(e, prof.e0)

	if e.sim != nil {
		r.extra("nbody.leapfrog_self_ms", median(prof.stepMS)-median(prof.solveMS), "ms")
		r.extra("nbody.energy_drift", e.drift(prof.e0), "ratio")
		if err := checkpointExtras(r, e.sim); err != nil {
			return nil, err
		}
	}
	if _, err := layerProbes(tr, r, cfg, sh, phi, true); err != nil {
		return nil, err
	}
	if e.sim == nil {
		if err := solveExtras(r, cfg, sh); err != nil {
			return nil, err
		}
	}
	r.put("bench.fail_share", r.failShare(), "ratio")
	return r, nil
}

// checkpointExtras times Simulation.Checkpoint into memory.
func checkpointExtras(r *result, sim *nbody.Simulation) error {
	times := make([]float64, 5)
	var buf bytes.Buffer
	for i := range times {
		buf.Reset()
		t0 := time.Now()
		if err := sim.Checkpoint(&buf); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		times[i] = ms(time.Since(t0))
	}
	r.extra("nbody.checkpoint_ms", median(times), "ms")
	r.extra("nbody.checkpoint_bytes", float64(buf.Len()), "bytes")
	return nil
}
