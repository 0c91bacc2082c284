// Package cli centralizes the flag plumbing shared by the repo's commands
// (cmd/nbody, cmd/phases, cmd/tables): mapping flag strings to particle
// systems, accuracy presets, ghost strategies, and — through Spec — the
// solver-selection switch itself. The commands keep their own flag sets and
// reporting; the construction logic lives here once so the three main.go
// files stop diverging.
package cli

import (
	"fmt"
	"math/rand"
	"strings"

	"nbody"
	"nbody/internal/dpfmm"
	"nbody/internal/simd"
)

// Canonical usage strings for the shared flags, so help output stays
// consistent across commands.
const (
	DistHelp     = "distribution: uniform|plummer|neutral"
	AccuracyHelp = "anderson preset: fast|balanced|accurate"
	StrategyHelp = "dp ghost strategy: direct-unaliased|linearized-unaliased|direct-aliased|linearized-aliased"
	BackendHelp  = "compute backend: auto|scalar|avx2|avx512 (auto picks the fastest the CPU supports; default: NBODY_BACKEND, else auto)"
)

// backendNames is the flag-to-backend table for SetBackend. "auto" is the
// process default: resolve to the best backend the host supports.
var backendNames = map[string]string{
	"auto":      simd.Auto,
	simd.Scalar: simd.Scalar,
	simd.AVX2:   simd.AVX2,
	simd.AVX512: simd.AVX512,
}

// SetBackend applies the -backend flag: it validates the name against the
// table above and switches internal/simd (and with it every dispatched
// kernel) before any solver is built. The empty name — the flag's default —
// keeps what the process started with, NBODY_BACKEND included, so the
// environment pins a backend unless the command line names one. Selecting a
// backend the host cannot run is an error, not a silent fallback — scripted
// benchmarks must never record numbers for a backend they did not actually
// use.
func SetBackend(name string) error {
	if name == "" {
		return nil
	}
	resolved, ok := backendNames[name]
	if !ok {
		return fmt.Errorf("unknown backend %q (%s)", name, BackendHelp)
	}
	if err := simd.SetBackend(resolved); err != nil {
		return fmt.Errorf("-backend %s: %w", name, err)
	}
	return nil
}

// System builds the particle distribution named by dist.
func System(dist string, n int, seed int64) (*nbody.System, error) {
	switch dist {
	case "uniform":
		return nbody.NewUniformSystem(n, seed), nil
	case "plummer":
		return nbody.NewPlummerSystem(n, seed), nil
	case "neutral":
		return nbody.NewNeutralSystem(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown distribution %q (%s)", dist, DistHelp)
	}
}

// System2D builds the uniform 2-D test system the 2-D solver paths use: unit
// square, charges in [-0.5, 0.5).
func System2D(n int, seed int64) ([]nbody.Vec2, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]nbody.Vec2, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = nbody.Vec2{X: rng.Float64(), Y: rng.Float64()}
		q[i] = rng.Float64() - 0.5
	}
	return pos, q
}

// Box2DUnit is the root box commands use with System2D: the unit square with
// a hair of slack so boundary particles stay inside.
func Box2DUnit() nbody.Box2D {
	return nbody.Box2D{Center: nbody.Vec2{X: 0.5, Y: 0.5}, Side: 1.001}
}

// Accuracy maps a preset name to the public accuracy knob.
func Accuracy(name string) (nbody.Accuracy, error) {
	switch name {
	case "fast":
		return nbody.Fast, nil
	case "balanced":
		return nbody.Balanced, nil
	case "accurate":
		return nbody.Accurate, nil
	default:
		return 0, fmt.Errorf("unknown accuracy %q (%s)", name, AccuracyHelp)
	}
}

// Strategy maps a ghost-strategy name to the dpfmm constant.
func Strategy(name string) (dpfmm.GhostStrategy, error) {
	switch name {
	case "direct-unaliased":
		return dpfmm.DirectUnaliased, nil
	case "linearized-unaliased":
		return dpfmm.LinearizedUnaliased, nil
	case "direct-aliased":
		return dpfmm.DirectAliased, nil
	case "linearized-aliased":
		return dpfmm.LinearizedAliased, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (%s)", name, StrategyHelp)
	}
}

// Spec is one flag-driven solver selection: the kind string plus everything
// any kind might need. Unused fields are ignored by the other kinds.
type Spec struct {
	Kind     string        // anderson (alias core) | bh | direct | dp
	Opts     nbody.Options // anderson and dp
	Theta    float64       // bh
	Nodes    int           // dp
	Strategy dpfmm.GhostStrategy
}

// New builds the selected solver against the given root box. The dp kind
// defaults a zero Opts.Depth to 4 (the data-parallel solver has no automatic
// depth heuristic).
func (sp Spec) New(box nbody.Box) (nbody.Solver, error) {
	switch sp.Kind {
	case "anderson", "core":
		return nbody.NewAnderson(box, sp.Opts)
	case "bh":
		return nbody.NewBarnesHut(box, sp.Theta), nil
	case "direct":
		return nbody.NewDirect(), nil
	case "dp":
		opts := sp.Opts
		if opts.Depth == 0 {
			opts.Depth = 4
		}
		return nbody.NewDataParallel(sp.Nodes, box, opts, sp.Strategy)
	default:
		return nil, fmt.Errorf("unknown solver %q (anderson | bh | direct | dp)", sp.Kind)
	}
}

// LadderHelp documents the -fallback flag shared by the commands.
const LadderHelp = "comma-separated fallback solvers for the degradation ladder, e.g. anderson,direct"

// Ladder builds the degradation ladder for the self-healing wrapper: rung 0
// is the spec's own solver, followed by one rung per comma-separated kind in
// fallbacks (each built from a copy of the spec with only Kind replaced, so
// depth/accuracy/ghost-strategy choices carry over). An empty fallbacks
// string yields the one-rung ladder.
func (sp Spec) Ladder(fallbacks string, box nbody.Box) ([]nbody.Solver, error) {
	first, err := sp.New(box)
	if err != nil {
		return nil, err
	}
	rungs := []nbody.Solver{first}
	if fallbacks == "" {
		return rungs, nil
	}
	for _, kind := range strings.Split(fallbacks, ",") {
		kind = strings.TrimSpace(kind)
		if kind == "" {
			return nil, fmt.Errorf("empty solver kind in fallback list %q", fallbacks)
		}
		fsp := sp
		fsp.Kind = kind
		s, err := fsp.New(box)
		if err != nil {
			return nil, fmt.Errorf("fallback %q: %w", kind, err)
		}
		rungs = append(rungs, s)
	}
	return rungs, nil
}

// Accel adapts a flag-selected solver to the Accelerator interface the
// simulation loop needs, wrapping the direct solver's error-free signature
// and rejecting potentials-only backends (Barnes-Hut) with a clear message.
func Accel(s nbody.Solver) (nbody.Accelerator, error) {
	if a, ok := s.(nbody.Accelerator); ok {
		return a, nil
	}
	if d, ok := s.(*nbody.Direct); ok {
		return nbody.DirectAccelerator{Direct: *d}, nil
	}
	return nil, fmt.Errorf("solver %s cannot drive a simulation (no acceleration support)", s.Name())
}

// RecoveryFlags is the command-line surface of the self-healing layer:
// retry budget, fallback ladder, and checkpoint/resume paths. Validate
// rejects inconsistent combinations before any solver is built.
type RecoveryFlags struct {
	Retries         int    // per-rung attempt budget (0 = library default)
	Fallback        string // comma-separated fallback kinds (see LadderHelp)
	Checkpoint      string // snapshot path for periodic checkpoints
	CheckpointEvery int    // steps between snapshots (0 = disabled)
	Resume          string // snapshot path to resume from
}

// Validate checks the recovery flag combination: a negative retry budget is
// meaningless, a checkpoint interval needs a path (and vice versa), and
// resuming while also writing checkpoints to the same file is allowed — but
// resuming from a file that is also the checkpoint target of a different
// interval setting is not a conflict the flags can detect, so only the
// structural rules are enforced here.
func (r RecoveryFlags) Validate() error {
	if r.Retries < 0 {
		return fmt.Errorf("-retries must be >= 0, got %d", r.Retries)
	}
	if r.CheckpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", r.CheckpointEvery)
	}
	if r.CheckpointEvery > 0 && r.Checkpoint == "" {
		return fmt.Errorf("-checkpoint-every %d needs -checkpoint <path>", r.CheckpointEvery)
	}
	if r.Checkpoint != "" && r.CheckpointEvery == 0 {
		return fmt.Errorf("-checkpoint %q needs -checkpoint-every <steps>", r.Checkpoint)
	}
	return nil
}

// Supervised wraps the ladder selected by spec+flags in the Resilient
// supervisor when any recovery behavior was requested; with no -retries and
// no -fallback it returns the bare rung-0 solver, so the default command
// path stays exactly what it was.
func Supervised(sp Spec, r RecoveryFlags, box nbody.Box) (nbody.Solver, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.Retries == 0 && r.Fallback == "" {
		return sp.New(box)
	}
	rungs, err := sp.Ladder(r.Fallback, box)
	if err != nil {
		return nil, err
	}
	return nbody.NewResilient(nbody.RetryPolicy{MaxAttempts: r.Retries}, rungs...)
}
