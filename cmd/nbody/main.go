// Command nbody solves one N-body potential problem and reports the timing
// breakdown, accuracy and (for the data-parallel solver) the paper's
// efficiency metrics. With -steps it time-integrates the system instead,
// and the recovery flags arm the self-healing layer: retries with fallback
// solvers, periodic checkpoints, and resuming a killed run.
//
//	nbody -n 100000 -solver anderson -accuracy fast
//	nbody -n 32768 -solver dp -nodes 16 -depth 4
//	nbody -n 20000 -solver bh -theta 0.5 -check
//	nbody -n 32768 -retries 5 -fallback anderson,direct
//	nbody -n 4096 -steps 100 -checkpoint run.ckpt -checkpoint-every 10
//	nbody -n 4096 -steps 100 -resume run.ckpt
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"nbody"
	"nbody/internal/cli"
	"nbody/internal/metrics"
	"nbody/internal/simd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nbody: ")
	var (
		n        = flag.Int("n", 32768, "number of particles")
		seed     = flag.Int64("seed", 1, "random seed")
		dist     = flag.String("dist", "uniform", cli.DistHelp)
		solver   = flag.String("solver", "anderson", "solver: anderson|bh|direct|dp")
		accuracy = flag.String("accuracy", "fast", cli.AccuracyHelp)
		depth    = flag.Int("depth", 0, "hierarchy depth (0 = auto)")
		theta    = flag.Float64("theta", 0.6, "Barnes-Hut opening angle")
		nodes    = flag.Int("nodes", 16, "simulated nodes for -solver dp")
		strategy = flag.String("strategy", "linearized-aliased", cli.StrategyHelp)
		super    = flag.Bool("supernodes", false, "enable supernodes (anderson)")
		check    = flag.Bool("check", false, "compare against the O(N^2) direct sum")

		steps = flag.Int("steps", 0, "leapfrog steps to integrate (0 = single potential solve)")
		dt    = flag.Float64("dt", 1e-4, "timestep for -steps")

		retries  = flag.Int("retries", 0, "retry attempts per solver before degrading (0 = no supervisor)")
		fallback = flag.String("fallback", "", cli.LadderHelp)
		ckPath   = flag.String("checkpoint", "", "snapshot path for periodic checkpoints")
		ckEvery  = flag.Int("checkpoint-every", 0, "steps between checkpoints (needs -checkpoint)")
		resume   = flag.String("resume", "", "resume the simulation from this snapshot")
		backend  = flag.String("backend", "", cli.BackendHelp)

		autotune  = flag.Bool("autotune", false, cli.AutotuneHelp)
		planStore = flag.String("plan-store", "", cli.PlanStoreHelp)
	)
	flag.Parse()

	// Switch the compute backend before any solver is built, so every
	// kernel of this run dispatches to the selected one.
	if err := cli.SetBackend(*backend); err != nil {
		log.Fatal(err)
	}

	rec := cli.RecoveryFlags{
		Retries:         *retries,
		Fallback:        *fallback,
		Checkpoint:      *ckPath,
		CheckpointEvery: *ckEvery,
		Resume:          *resume,
	}
	if err := rec.Validate(); err != nil {
		log.Fatal(err)
	}
	if (rec.Checkpoint != "" || rec.Resume != "") && *steps == 0 {
		log.Fatal("-checkpoint/-resume only apply to simulations: set -steps")
	}

	sys, err := cli.System(*dist, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := cli.Accuracy(*accuracy)
	if err != nil {
		log.Fatal(err)
	}
	strat, err := cli.Strategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	spec := cli.Spec{
		Kind:     *solver,
		Opts:     nbody.Options{Accuracy: acc, Depth: *depth, Supernodes: *super},
		Theta:    *theta,
		Nodes:    *nodes,
		Strategy: strat,
	}

	// The simulation needs a domain box that survives particle motion; a
	// single potential solve only needs the initial bounding box.
	box := sys.BoundingBox()
	if *steps > 0 {
		box.Side *= 4
	}

	if *autotune || *planStore != "" {
		if spec.Kind != "anderson" && spec.Kind != "core" {
			log.Fatal("-autotune/-plan-store apply to -solver anderson")
		}
		pf := cli.PlanFlags{Autotune: *autotune, Store: *planStore}
		planner, err := pf.Planner(0)
		if err != nil {
			log.Fatal(err)
		}
		spec, err = pf.Apply(planner, spec, sys, *accuracy, box)
		if err != nil {
			log.Fatal(err)
		}
		if err := pf.Save(planner); err != nil {
			log.Fatal(err)
		}
	}

	s, err := cli.Supervised(spec, rec, box)
	if err != nil {
		log.Fatal(err)
	}

	if *steps > 0 {
		simulate(s, sys, rec, *steps, *dt)
		return
	}

	start := time.Now()
	phi, err := s.Potentials(sys)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	fmt.Printf("solver=%s N=%d dist=%s backend=%s wall=%v\n",
		s.Name(), sys.Len(), *dist, simd.Active(), wall.Round(time.Millisecond))

	switch sv := s.(type) {
	case *nbody.Anderson:
		fmt.Printf("depth=%d\n%s", sv.Depth(), sv.Stats())
	case *nbody.DataParallel:
		r := sv.Report("dp", sys.Len())
		fmt.Printf("model: eff=%.1f%% cycles/particle=%.0f comm=%.1f%% model-seconds=%.3f\n",
			100*r.Efficiency(), r.CyclesPerParticle(), 100*r.CommFraction(), r.ModelSeconds())
	case *nbody.BarnesHut:
		fmt.Printf("cell interactions=%d particle interactions=%d\n",
			sv.LastStats.CellInteractions, sv.LastStats.ParticleInteractions)
	case *nbody.Resilient:
		fmt.Printf("ladder=%v served-by=rung %d\n", sv.RungNames(), sv.LastRung())
	}
	reportRecovery(s, nil)

	if *check {
		want, _ := nbody.NewDirect().Potentials(sys)
		var rms, mean float64
		for i := range phi {
			d := phi[i] - want[i]
			rms += d * d
			mean += math.Abs(want[i])
		}
		rms = math.Sqrt(rms / float64(len(phi)))
		mean /= float64(len(phi))
		fmt.Printf("error relative to mean |phi|: %.3e (%.1f digits)\n", rms/mean, -math.Log10(rms/mean))
	}
}

// simulate runs the time-integration mode: fresh or resumed, optionally
// writing periodic checkpoints, reporting energy drift at the end.
func simulate(s nbody.Solver, sys *nbody.System, rec cli.RecoveryFlags, steps int, dt float64) {
	accel, err := cli.Accel(s)
	if err != nil {
		log.Fatal(err)
	}
	var sim *nbody.Simulation
	if rec.Resume != "" {
		sim, err = nbody.ResumeSimulationFile(rec.Resume, accel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed %s at step %d (t=%g)\n", rec.Resume, sim.Steps(), sim.Time())
	} else {
		sim, err = nbody.NewSimulation(sys, nil, accel, dt)
		if err != nil {
			log.Fatal(err)
		}
	}
	if rec.Checkpoint != "" {
		if err := sim.EnableCheckpoints(rec.Checkpoint, rec.CheckpointEvery); err != nil {
			log.Fatal(err)
		}
	}
	_, _, e0 := sim.Energy()
	start := time.Now()
	if err := sim.Step(steps); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	k, u, e := sim.Energy()
	fmt.Printf("solver=%s N=%d steps=%d t=%g wall=%v\n",
		s.Name(), sim.System.Len(), sim.Steps(), sim.Time(), wall.Round(time.Millisecond))
	fmt.Printf("energy: kinetic=%.6g potential=%.6g total=%.6g drift=%.3e\n",
		k, u, e, math.Abs(e-e0)/math.Max(math.Abs(e0), 1e-300))
	reportRecovery(s, sim)
}

// reportRecovery prints the self-healing counters of this run's own
// supervisor (when -retries/-fallback built one) and simulation, when any
// recovery event fired; a healthy run prints nothing.
func reportRecovery(s nbody.Solver, sim *nbody.Simulation) {
	var r metrics.RecoveryStats
	if rs, ok := s.(*nbody.Resilient); ok {
		r.Retries, r.BreakerTrips, r.Degradations = rs.Counters()
	}
	if sim != nil {
		r.Checkpoints, r.Resumes = sim.Counters()
	}
	if r.Zero() {
		return
	}
	fmt.Printf("recovery: %d retries, %d breaker trips, %d degradations, %d checkpoints, %d resumes\n",
		r.Retries, r.BreakerTrips, r.Degradations, r.Checkpoints, r.Resumes)
}
