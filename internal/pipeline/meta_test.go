package pipeline_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nbody/internal/core"
	"nbody/internal/core2"
	"nbody/internal/dp"
	"nbody/internal/dpfmm"
	"nbody/internal/geom"
	"nbody/internal/pipeline"
	"nbody/internal/testutil"
)

// The meta-test: every solver's pipeline is declared through the shared
// runner, so every phase of every solver must come with the runner's full
// provisions — a metrics span, a named fault-injection site, and a
// cancellation check before the phase. Rather than trusting each solver's
// declaration, these tests observe the runner's events during real solves
// and check the provisions structurally, plus binary-wide site-name
// uniqueness over the solvers' exported site inventories.

func collect(t *testing.T, solve func() error) []pipeline.Event {
	t.Helper()
	var mu sync.Mutex
	var evs []pipeline.Event
	pipeline.SetObserver(func(ev pipeline.Event) {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
	})
	defer pipeline.SetObserver(nil)
	if err := solve(); err != nil {
		t.Fatalf("solve: %v", err)
	}
	return evs
}

func randomSystem2(n int) ([]geom.Vec2, []float64) {
	rng := rand.New(rand.NewSource(7))
	pos := make([]geom.Vec2, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64(), Y: rng.Float64()}
		q[i] = rng.Float64() - 0.5
	}
	return pos, q
}

// solverCase is one registered pipeline: a site inventory, a prefix scoping
// its names, and a solve to observe.
type solverCase struct {
	name   string
	prefix string
	sites  []string // full inventory (superset of what one solve fires)
	solve  func(t *testing.T) error
}

func solverCases(t *testing.T) []solverCase {
	t.Helper()
	pos, q := testutil.RandomSystem(400, 42)
	pos2, q2 := randomSystem2(300)

	coreSolver, err := core.NewSolver(testutil.UnitBox(), core.Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	core2Solver, err := core2.NewSolver(
		geom.Box2{Center: geom.Vec2{X: 0.5, Y: 0.5}, Side: 1.001}, core2.Config{K: 16, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	newDP := func(mg bool) *dpfmm.Solver {
		m, err := dp.NewMachine(8, 4, dp.CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := dpfmm.NewSolver(m, testutil.UnitBox(), core.Config{Degree: 5, Depth: 3}, dpfmm.DirectUnaliased)
		if err != nil {
			t.Fatal(err)
		}
		s.MultigridStorage = mg
		return s
	}

	phi, acc, phi2 := make([]float64, len(pos)), make([]geom.Vec3, len(pos)), make([]float64, len(pos2))
	return []solverCase{
		{"core", "core/", core.FaultSitesAll,
			func(*testing.T) error { return coreSolver.Solve(nil, pos, q, phi, nil) }},
		{"core2", "core2/", core2.FaultSites,
			func(*testing.T) error { return core2Solver.Solve(nil, pos2, q2, phi2) }},
		{"dpfmm", "dpfmm/", dpfmm.FaultSitesAll,
			func(*testing.T) error { return newDP(false).Solve(nil, pos, q, phi, nil) }},
		{"dpfmm-multigrid", "dpfmm/", dpfmm.FaultSitesAll,
			func(*testing.T) error { return newDP(true).Solve(nil, pos, q, phi, nil) }},
		{"dpfmm-forces", "dpfmm/", dpfmm.FaultSitesAll,
			func(*testing.T) error { return newDP(false).Solve(nil, pos, q, phi, acc) }},
		{"dpfmm-forces-multigrid", "dpfmm/", dpfmm.FaultSitesAll,
			func(*testing.T) error { return newDP(true).Solve(nil, pos, q, phi, acc) }},
	}
}

// TestEveryPhaseProvisioned runs one solve per registered pipeline and
// checks, from the runner's own event stream, that every executed phase
// carried a span and a fault site: plain phases and nested composite steps
// must name a site scoped to their pipeline, composite phases must record
// nested steps, and the pipeline's declared site inventory must actually be
// exercised (modulo in-worker body sites and configuration-gated sites,
// which are excluded per case).
func TestEveryPhaseProvisioned(t *testing.T) {
	// Sites that one observed solve cannot fire: in-worker body sites emit
	// no runner events, and embed/extract fire only under multigrid storage.
	unobservable := map[string]map[string]bool{
		"core": {core.FaultSiteLeafOuterBody: true, core.FaultSiteNearBody: true},
		"dpfmm": {
			dpfmm.FaultSiteEmbed: true, dpfmm.FaultSiteExtract: true,
		},
		"dpfmm-forces": {
			dpfmm.FaultSiteEmbed: true, dpfmm.FaultSiteExtract: true,
		},
	}
	for _, tc := range solverCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			evs := collect(t, func() error { return tc.solve(t) })
			if len(evs) == 0 {
				t.Fatal("solve produced no pipeline events")
			}
			registered := make(map[string]bool, len(tc.sites))
			for _, s := range tc.sites {
				registered[s] = true
			}
			seen := make(map[string]bool)
			for i, ev := range evs {
				if ev.Composite {
					// A composite phase must record at least one nested
					// step before the pipeline moves on.
					nested := false
					for j := i + 1; j < len(evs) && evs[j].Nested; j++ {
						nested = true
					}
					if !nested {
						t.Errorf("event %d: composite %v phase recorded no nested steps", i, ev.Phase)
					}
					continue
				}
				if ev.Site == "" {
					t.Errorf("event %d: phase %v has no fault site", i, ev.Phase)
					continue
				}
				if !strings.HasPrefix(ev.Site, tc.prefix) {
					t.Errorf("event %d: site %q not scoped to pipeline %q", i, ev.Site, tc.prefix)
				}
				if !registered[ev.Site] {
					t.Errorf("event %d: site %q not in the pipeline's exported inventory", i, ev.Site)
				}
				seen[ev.Site] = true
			}
			for _, s := range tc.sites {
				if !seen[s] && !unobservable[tc.name][s] {
					t.Errorf("registered site %q never exercised by the solve", s)
				}
			}
		})
	}
}

// TestPreCanceledRunsNoPhase checks the runner's between-phase cancellation
// contract at its boundary: a context canceled before the solve must return
// context.Canceled without executing (or observing) a single phase.
func TestPreCanceledRunsNoPhase(t *testing.T) {
	pos, q := testutil.RandomSystem(100, 43)
	pos2, q2 := randomSystem2(100)

	coreSolver, err := core.NewSolver(testutil.UnitBox(), core.Config{Degree: 5, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	core2Solver, err := core2.NewSolver(
		geom.Box2{Center: geom.Vec2{X: 0.5, Y: 0.5}, Side: 1.001}, core2.Config{K: 16, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dp.NewMachine(8, 4, dp.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	dpSolver, err := dpfmm.NewSolver(m, testutil.UnitBox(), core.Config{Degree: 5, Depth: 2}, dpfmm.DirectUnaliased)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name  string
		solve func() error
	}{
		{"core", func() error { return coreSolver.Solve(ctx, pos, q, make([]float64, len(pos)), nil) }},
		{"core2", func() error { return core2Solver.Solve(ctx, pos2, q2, make([]float64, len(pos2))) }},
		{"dpfmm", func() error { return dpSolver.Solve(ctx, pos, q, make([]float64, len(pos)), nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var evs []pipeline.Event
			pipeline.SetObserver(func(ev pipeline.Event) {
				mu.Lock()
				evs = append(evs, ev)
				mu.Unlock()
			})
			defer pipeline.SetObserver(nil)
			err := tc.solve()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled solve returned %v, want context.Canceled", err)
			}
			if len(evs) != 0 {
				t.Errorf("pre-canceled solve still ran %d phases (first: %+v)", len(evs), evs[0])
			}
		})
	}
}

// TestSiteNamesUniqueAcrossBinary checks the binary-wide fault-site
// namespace: every pipeline exports its full site inventory, all names are
// unique, and each is scoped "<pipeline>/...". A duplicate name would make
// fault-matrix results ambiguous between solvers.
func TestSiteNamesUniqueAcrossBinary(t *testing.T) {
	inventories := []struct {
		prefix string
		sites  []string
	}{
		{"core/", core.FaultSitesAll},
		{"core2/", core2.FaultSites},
		{"dpfmm/", dpfmm.FaultSitesAll},
	}
	owner := make(map[string]string)
	for _, inv := range inventories {
		for _, s := range inv.sites {
			if !strings.HasPrefix(s, inv.prefix) {
				t.Errorf("site %q not scoped under %q", s, inv.prefix)
			}
			if prev, dup := owner[s]; dup {
				t.Errorf("site %q registered by both %q and %q", s, prev, inv.prefix)
			}
			owner[s] = inv.prefix
		}
	}
	if len(owner) < 20 {
		t.Errorf("only %d sites registered; expected the full inventory of all three pipelines", len(owner))
	}
}
