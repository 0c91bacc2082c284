// Command phases runs one solve and prints the per-phase breakdown the
// paper reports in its phase tables: wall time, sustained Mflops/s, and
// share of the total solve per phase, plus translation and near-field pair
// counts. It exercises the instrumentation layer end to end (phase spans,
// analytic flop counters, BLAS call counters, scheduler worker stats).
//
//	phases                         # shared-memory solver, N=32768, depth 4, K=12
//	phases -solver dp -nodes 8     # data-parallel solver on the simulated machine
//	phases -solver 2d -depth 4     # the 2-D solver
//	phases -degree 13              # the high-accuracy configuration
package main

import (
	"flag"
	"fmt"
	"log"

	"nbody"
	"nbody/internal/blas"
	"nbody/internal/cli"
	"nbody/internal/dpfmm"
	"nbody/internal/metrics"
	"nbody/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("phases: ")
	var (
		solver  = flag.String("solver", "core", "solver: core | dp | 2d")
		n       = flag.Int("n", 32768, "particles")
		depth   = flag.Int("depth", 4, "hierarchy depth")
		degree  = flag.Int("degree", 5, "integration order D (5 -> K=12, 13 -> K=98)")
		nodes   = flag.Int("nodes", 8, "simulated machine nodes (dp solver)")
		seed    = flag.Int64("seed", 1, "particle seed")
		solves  = flag.Int("solves", 1, "number of solves to accumulate")
		workers = flag.Bool("workers", true, "capture per-worker scheduler utilization")
		backend = flag.String("backend", "", cli.BackendHelp)

		autotune  = flag.Bool("autotune", false, cli.AutotuneHelp)
		planStore = flag.String("plan-store", "", cli.PlanStoreHelp)
	)
	flag.Parse()

	// The backend switch happens before any solver exists, so every kernel
	// the solve dispatches — and the backend tag the snapshot records — is
	// the selected one.
	if err := cli.SetBackend(*backend); err != nil {
		log.Fatal(err)
	}

	// Plan resolution happens before the counters are armed, so autotune
	// bench solves do not pollute the reported breakdown. An explicit -depth
	// pins the depth; otherwise the planner chooses it (tuned entry, measured
	// search under -autotune, or the analytic cost model).
	var plannerStats *metrics.PlannerStats
	if *autotune || *planStore != "" {
		if *solver != "core" {
			log.Fatal("-autotune/-plan-store apply to -solver core")
		}
		depthSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "depth" {
				depthSet = true
			}
		})
		d := *depth
		if !depthSet {
			d = 0
		}
		sys := nbody.NewUniformSystem(*n, *seed)
		spec := cli.Spec{Kind: "core", Opts: nbody.Options{Degree: *degree, Depth: d}}
		pf := cli.PlanFlags{Autotune: *autotune, Store: *planStore}
		planner, err := pf.Planner(0)
		if err != nil {
			log.Fatal(err)
		}
		spec, err = pf.Apply(planner, spec, sys, accuracyOfDegree(*degree), sys.BoundingBox())
		if err != nil {
			log.Fatal(err)
		}
		if err := pf.Save(planner); err != nil {
			log.Fatal(err)
		}
		*depth = spec.Opts.Depth
		c := planner.Counters()
		plannerStats = &c
	}

	if *workers {
		sched.EnableStats(true)
		sched.ResetStats()
	}
	blas.EnableCounters(true)
	blas.ResetCounters()

	st, err := run(*solver, *n, *depth, *degree, *nodes, *seed, *solves)
	if err != nil {
		log.Fatal(err)
	}
	if *workers {
		st.CaptureWorkers()
	}
	// The planner counters ride along in the table when this run owned a
	// planner (-autotune / -plan-store).
	st.Planner = plannerStats

	fmt.Printf("solver=%s solves=%d\n", *solver, *solves)
	fmt.Print(st.Table())
	c := blas.ReadCounters()
	fmt.Printf("  blas: %d gemm calls (%d flops), %d gemv calls (%d flops)\n",
		c.GemmCalls, c.GemmFlops, c.GemvCalls, c.GemvFlops)
	if sec := st.Time[metrics.PhaseNear].Seconds(); sec > 0 {
		// Pairs evaluated, not interactions delivered: the shared-memory
		// solver evaluates a pair once and deposits it on both particles.
		fmt.Printf("  near: %d pairs evaluated, %.0f Mpairs/s\n", st.NearPairs, float64(st.NearPairs)/sec/1e6)
	}
	fmt.Printf("  heap: %d allocs, %d B across %d solve(s)\n", st.HeapAllocs, st.HeapBytes, *solves)
	if len(st.Workers) > 0 {
		var jobs int64
		for _, w := range st.Workers {
			jobs += w.Jobs
		}
		fmt.Printf("  sched: %d participants, %d timed jobs\n", len(st.Workers), jobs)
	}
}

// accuracyOfDegree maps the -degree flag onto the plan subsystem's accuracy
// preset names (degree 5/9/13 are the paper's configurations; anything else
// keys as the nearest-below preset).
func accuracyOfDegree(degree int) string {
	switch {
	case degree >= 13:
		return "accurate"
	case degree >= 9:
		return "balanced"
	default:
		return "fast"
	}
}

func run(solver string, n, depth, degree int, nodes int, seed int64, solves int) (*metrics.Snapshot, error) {
	// The 2-D solver has its own particle and options types; everything else
	// goes through the shared flag → solver selection in internal/cli.
	if solver == "2d" {
		pos, q := cli.System2D(n, seed)
		a, err := nbody.NewAnderson2D(cli.Box2DUnit(), nbody.Options2D{Depth: depth})
		if err != nil {
			return nil, err
		}
		var d metrics.AllocDelta
		d.Start()
		for i := 0; i < solves; i++ {
			if _, err := a.Potentials(pos, q); err != nil {
				return nil, err
			}
		}
		st := a.Stats()
		d.CaptureInto(st)
		return st, nil
	}

	if solver != "core" && solver != "dp" {
		return nil, fmt.Errorf("unknown solver %q (core | dp | 2d)", solver)
	}
	sys := nbody.NewUniformSystem(n, seed)
	spec := cli.Spec{
		Kind:     solver,
		Opts:     nbody.Options{Degree: degree, Depth: depth},
		Nodes:    nodes,
		Strategy: dpfmm.LinearizedAliased,
	}
	s, err := spec.New(sys.BoundingBox())
	if err != nil {
		return nil, err
	}
	var probe metrics.AllocDelta
	probe.Start()
	for i := 0; i < solves; i++ {
		if _, err := s.Potentials(sys); err != nil {
			return nil, err
		}
	}
	var st *metrics.Snapshot
	switch sv := s.(type) {
	case *nbody.Anderson:
		st = sv.Stats()
	case *nbody.DataParallel:
		st = sv.Machine.Stats()
	}
	probe.CaptureInto(st)
	return st, nil
}
