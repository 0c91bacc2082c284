package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"nbody/internal/blas"
	"nbody/internal/geom"
)

// resetTSMemo empties the process-wide memo, so a test sees a first build.
func resetTSMemo() {
	tsMemo.Lock()
	tsMemo.entries = nil
	tsMemo.Unlock()
}

// setHash hashes every bit of every matrix of a set.
func setHash(ts *TranslationSet) uint64 {
	h := fnv.New64a()
	var b [8]byte
	add := func(ms []blas.Matrix) {
		for _, m := range ms {
			for _, v := range m.Data {
				u := math.Float64bits(v)
				for i := range b {
					b[i] = byte(u >> (8 * i))
				}
				h.Write(b[:])
			}
		}
	}
	add(ts.T1[:])
	add(ts.T3[:])
	add(ts.T2T)
	for oct := range ts.T2Super {
		add(ts.T2Super[oct])
	}
	return h.Sum64()
}

func mustSolver(t *testing.T, root geom.Box3, cfg Config) *Solver {
	t.Helper()
	s, err := NewSolver(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Solvers that differ only in what the matrices do not depend on (depth,
// domain, and N, which a Solver does not even know) read one set; the first
// pays PhaseSetup, the others are charged nothing. Solvers that differ in K,
// separation or supernodes get sets of their own.
func TestTranslationSetSharedAcrossSolvers(t *testing.T) {
	resetTSMemo()
	base := Config{Degree: 5, Depth: 3}
	first := mustSolver(t, unitBox(), base)
	if f := first.Stats().Flops[PhaseSetup]; f <= 0 {
		t.Fatalf("the solver that built the set is charged %d setup flops", f)
	}
	if first.Stats().Time[PhaseSetup] <= 0 {
		t.Fatal("the solver that built the set is charged no setup time")
	}
	deeper := base
	deeper.Depth = 4
	perBox := base
	perBox.DisableAggregation = true
	for name, s := range map[string]*Solver{
		"same":     mustSolver(t, unitBox(), base),
		"depth":    mustSolver(t, unitBox(), deeper),
		"domain":   mustSolver(t, plummerBox(), base),
		"schedule": mustSolver(t, unitBox(), perBox),
	} {
		if s.ts != first.ts || &s.ts.T2T[0] != &first.ts.T2T[0] {
			t.Errorf("%s: a second TranslationSet was built", name)
		}
		if st := s.Stats(); st.Flops[PhaseSetup] != 0 || st.Time[PhaseSetup] != 0 {
			t.Errorf("%s: charged %d setup flops, %v setup time for a set it did not build",
				name, st.Flops[PhaseSetup], st.Time[PhaseSetup])
		}
	}
	// Each row differs from every other in one thing the matrices do depend on
	// (separation 1 needs the smaller ratio, so the ratio row carries it too).
	seen := map[*TranslationSet]string{first.ts: "base"}
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"K", Config{Degree: 7, Depth: 3}},
		{"M", Config{Degree: 5, M: 2, Depth: 3}},
		{"ratio", Config{Degree: 5, RadiusRatio: 0.95, Depth: 3}},
		{"separation", Config{Degree: 5, RadiusRatio: 0.95, Separation: 1, Depth: 3}},
		{"supernodes", Config{Degree: 5, Supernodes: true, Depth: 3}},
	} {
		s := mustSolver(t, unitBox(), row.cfg)
		if other, dup := seen[s.ts]; dup {
			t.Errorf("%s: shares the set of %s", row.name, other)
		}
		seen[s.ts] = row.name
		if s.Stats().Flops[PhaseSetup] <= 0 {
			t.Errorf("%s: built a set and was charged nothing", row.name)
		}
	}
}

// A solve on the shared set has the bits of a solve on a set built for that
// solver alone, and no solve writes the set.
func TestSharedSetSolveBitwiseAndImmutable(t *testing.T) {
	pos, q := uniformParticles(rand.New(rand.NewSource(71)), 3000)
	for _, cfg := range []Config{{Degree: 5, Depth: 3}, {Degree: 5, Depth: 3, Supernodes: true}} {
		resetTSMemo()
		private := mustSolver(t, unitBox(), cfg)
		before := setHash(private.ts)
		if before != setHash(NewTranslationSet(private.cfg)) {
			t.Fatal("the memo's set differs from NewTranslationSet's")
		}
		phi, acc, err := accelerations(private, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		want := solveHash(phi, acc)

		shared := mustSolver(t, unitBox(), cfg)
		if shared.ts != private.ts {
			t.Fatal("second solver did not share the set")
		}
		for rep := 0; rep < 2; rep++ {
			phi, acc, err = accelerations(shared, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := solveHash(phi, acc); got != want {
				t.Errorf("supernodes=%v rep %d: shared-set solve %016x, private-set solve %016x", cfg.Supernodes, rep, got, want)
			}
		}
		if after := setHash(private.ts); after != before {
			t.Errorf("supernodes=%v: the set changed under solves: %016x -> %016x", cfg.Supernodes, before, after)
		}
	}
}

// Eight goroutines construct and solve at once: one build, one answer. Run
// under -race this is the proof that nothing writes the shared set.
func TestSharedSetConcurrentConstructAndSolve(t *testing.T) {
	resetTSMemo()
	pos, q := uniformParticles(rand.New(rand.NewSource(73)), 2000)
	const workers = 8
	hashes := make([]uint64, workers)
	sets := make([]*TranslationSet, workers)
	built := make([]bool, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 2 + g%2})
			if err != nil {
				errs[g] = err
				return
			}
			sets[g], built[g] = s.ts, s.Stats().Flops[PhaseSetup] > 0
			phi, err := potentials(s, pos, q)
			hashes[g], errs[g] = solveHash(phi, nil), err
		}()
	}
	wg.Wait()
	builders := 0
	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if sets[g] != sets[0] {
			t.Errorf("goroutine %d got a set of its own", g)
		}
		if hashes[g] != hashes[g%2] {
			t.Errorf("goroutine %d (depth %d): %016x, goroutine %d: %016x", g, 2+g%2, hashes[g], g%2, hashes[g%2])
		}
		if built[g] {
			builders++
		}
	}
	if builders != 1 {
		t.Errorf("%d solvers were charged the build, want exactly 1", builders)
	}
}

// Past its bound the memo forgets the least recently used set: asking for it
// again builds it again, and a set still in use stays in.
func TestTranslationSetMemoDropsLeastRecentlyUsed(t *testing.T) {
	resetTSMemo()
	cfg := func(m int) Config { return Config{Degree: 5, M: m, Depth: 2} }
	oldest := mustSolver(t, unitBox(), cfg(1)).ts
	for m := 2; m <= tsMemoCap; m++ {
		mustSolver(t, unitBox(), cfg(m))
	}
	if mustSolver(t, unitBox(), cfg(1)).ts != oldest {
		t.Fatal("a set was dropped before the memo was full")
	}
	// cfg(1) is now the most recent; one more distinct set pushes out cfg(2).
	mustSolver(t, unitBox(), cfg(tsMemoCap+1))
	tsMemo.Lock()
	n := len(tsMemo.entries)
	tsMemo.Unlock()
	if n != tsMemoCap {
		t.Fatalf("memo holds %d sets, bound is %d", n, tsMemoCap)
	}
	if mustSolver(t, unitBox(), cfg(1)).ts != oldest {
		t.Error("the recently used set was dropped instead of the least recently used")
	}
	if s := mustSolver(t, unitBox(), cfg(2)); s.Stats().Flops[PhaseSetup] <= 0 {
		t.Error("the least recently used set was still there past the bound")
	}
}
