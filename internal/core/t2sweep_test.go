package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"nbody/internal/blas"
	"nbody/internal/direct"
	"nbody/internal/geom"
	"nbody/internal/metrics"
	"nbody/internal/simd"
	"nbody/internal/tree"
)

// contrib is one translation a target box must receive: which grid and box
// it reads, through which matrix. Grids and matrices are identified by the
// address of their first element.
type contrib struct {
	grid *float64
	box  int
	tt   *float64
}

func gridID(g []float64) *float64     { return &g[0] }
func matrixID(m blas.Matrix) *float64 { return &m.Data[0] }
func (c contrib) String() string {
	return fmt.Sprintf("{grid %p box %d matrix %p}", c.grid, c.box, c.tt)
}
func boxes(sd side) int                  { return sd.grid * sd.grid * sd.grid }
func coordOf(b int, sd side) geom.Coord3 { return geom.CoordFromIndex(b, sd.grid) }

// The four enumerations below state, box by box and without lattices, what
// each sweep must do. They are the per-box loops the lattice walker
// replaced, kept here as the reference.

// wantT2 lists the interactive field of a target at level l in
// tree.InteractiveOffsets order.
func wantT2(s *Solver, l int) func(c geom.Coord3) []contrib {
	n := s.hier.GridSize(l)
	var offs [8][]geom.Coord3
	for oct := range offs {
		offs[oct] = tree.InteractiveOffsets(s.cfg.Separation, oct)
	}
	return func(c geom.Coord3) []contrib {
		var out []contrib
		for _, o := range offs[c.Octant()] {
			if sc := c.Add(o); sc.In(n) {
				out = append(out, contrib{gridID(s.far[l]), sc.Index(n), matrixID(s.ts.t2tFor(o))})
			}
		}
		return out
	}
}

// wantT2Supernodes lists parents first, then children, each in
// tree.SupernodeDecomposition order.
func wantT2Supernodes(s *Solver, l int) func(c geom.Coord3) []contrib {
	n, np := s.hier.GridSize(l), s.hier.GridSize(l-1)
	var sns [8]tree.Supernodes
	for oct := range sns {
		sns[oct] = tree.SupernodeDecomposition(s.cfg.Separation, oct)
	}
	return func(c geom.Coord3) []contrib {
		oct := c.Octant()
		var out []contrib
		for i, t := range sns[oct].ParentOffsets {
			if sp := c.Parent().Add(t); sp.In(np) {
				out = append(out, contrib{gridID(s.far[l-1]), sp.Index(np), matrixID(s.ts.T2Super[oct][i])})
			}
		}
		for _, o := range sns[oct].ChildOffsets {
			if sc := c.Add(o); sc.In(n) {
				out = append(out, contrib{gridID(s.far[l]), sc.Index(n), matrixID(s.ts.t2tFor(o))})
			}
		}
		return out
	}
}

// wantT3: every child takes its parent's local field through its octant's
// matrix.
func wantT3(s *Solver, l int) func(c geom.Coord3) []contrib {
	np := s.hier.GridSize(l - 1)
	return func(c geom.Coord3) []contrib {
		return []contrib{{gridID(s.loc[l-1]), c.Parent().Index(np), matrixID(s.ts.T3[c.Octant()])}}
	}
}

// wantT1: every parent sums its eight children, octants ascending.
func wantT1(s *Solver, l int) func(c geom.Coord3) []contrib {
	nc := s.hier.GridSize(l + 1)
	return func(c geom.Coord3) []contrib {
		var out []contrib
		for oct := 0; oct < 8; oct++ {
			out = append(out, contrib{gridID(s.far[l+1]), c.Child(oct).Index(nc), matrixID(s.ts.T1[oct])})
		}
		return out
	}
}

// TestT2SweepPartition is the schedule's correctness statement, checked on
// the plans alone (no arithmetic): for every sweep of every builder — plain
// T2 at both separations, supernode T2, T1 and T3 — the jobs apply every
// (target, source, matrix) of the independent per-box enumeration exactly
// once, each target from exactly one job, each target's contributions in
// the enumeration's order, and the visits add up to the count the sweep
// charges. A solve per depth then checks the sweeps against the T2 count
// the solver reports.
func TestT2SweepPartition(t *testing.T) {
	const depth = 5
	for sep := 1; sep <= 2; sep++ {
		s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: depth, Separation: sep, RadiusRatio: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		for l := 2; l <= depth; l++ {
			l := l
			t.Run(fmt.Sprintf("sep%d/level%d", sep, l), func(t *testing.T) {
				checkPartition(t, s.t2[l], PhaseT2, wantT2(s, l))
			})
			// The parent-child sweeps do not depend on the separation.
			if sep == 2 && l < depth {
				t.Run(fmt.Sprintf("T1/level%d", l), func(t *testing.T) {
					checkPartition(t, s.t1[l], PhaseUpward, wantT1(s, l))
				})
			}
			if sep == 2 && l > 2 {
				t.Run(fmt.Sprintf("T3/level%d", l), func(t *testing.T) {
					checkPartition(t, s.t3[l], PhaseT3, wantT3(s, l))
				})
			}
		}
	}

	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: depth, Supernodes: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("supernodes/level2", func(t *testing.T) {
		checkPartition(t, s.t2[2], PhaseT2, wantT2(s, 2))
	})
	for l := 3; l <= depth; l++ {
		l := l
		t.Run(fmt.Sprintf("supernodes/level%d", l), func(t *testing.T) {
			checkPartition(t, s.t2[l], PhaseT2, wantT2Supernodes(s, l))
		})
	}
	// A box whose whole interactive field is inside the grid receives the
	// paper's counts: 875 conversions, 189 through supernodes (98 + 91).
	interior := geom.Coord3{X: 5, Y: 6, Z: 7}
	if got := len(wantT2(s, 4)(interior)); got != 875 {
		t.Errorf("interior box: %d plain conversions, want 875", got)
	}
	if got := len(wantT2Supernodes(s, 4)(interior)); got != 189 {
		t.Errorf("interior box: %d supernode conversions, want 189", got)
	}

	// The sweeps are what a solve counts, at every depth, and what the blas
	// counters count: every translation is one DgemmRowsT slab, and nothing
	// else in a solve multiplies matrices. The leaf regions charge their
	// closed forms.
	blas.EnableCounters(true)
	defer blas.EnableCounters(false)
	for d := 2; d <= depth; d++ {
		for _, sup := range []bool{false, true} {
			s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: d, Supernodes: sup})
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for l := 2; l <= d; l++ {
				total += s.t2[l].count
			}
			// The depth-4 totals are the ones EXPERIMENTS.md reports.
			if d == 4 {
				if want := map[bool]int64{false: 2247896, true: 545496}[sup]; total != want {
					t.Errorf("depth 4 supernodes=%v: sweeps hold %d conversions, want %d", sup, total, want)
				}
			}
			rng := rand.New(rand.NewSource(71))
			pos, q := uniformParticles(rng, 2000)
			blas.ResetCounters()
			if _, err := potentials(s, pos, q); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if c, got := blas.ReadCounters(), st.Flops[PhaseUpward]+st.Flops[PhaseT2]+st.Flops[PhaseT3]; got != c.GemmFlops || c.GemvFlops != 0 {
				t.Errorf("depth %d supernodes=%v: T1+T2+T3 charged %d flops, blas counted %d gemm and %d gemv",
					d, sup, got, c.GemmFlops, c.GemvFlops)
			}
			k, n := int64(s.ts.K), int64(len(pos))
			if want := n * k * direct.FlopsPerPair; st.Flops[PhaseLeafOuter] != want {
				t.Errorf("depth %d supernodes=%v: leaf-outer charged %d flops, want %d", d, sup, st.Flops[PhaseLeafOuter], want)
			}
			if want := EvalLocalFlops(len(pos), s.ts.K, s.cfg.M, false); st.Flops[PhaseEvalLocal] != want {
				t.Errorf("depth %d supernodes=%v: eval-local charged %d flops, want %d", d, sup, st.Flops[PhaseEvalLocal], want)
			}
			if st.T2Count != total {
				t.Errorf("depth %d supernodes=%v: solver counted %d conversions, the sweeps hold %d", d, sup, st.T2Count, total)
			}
			if want := total * blas.DgemmFlops(s.ts.K, s.ts.K, 1); st.Flops[PhaseT2] != want {
				t.Errorf("depth %d supernodes=%v: T2 flops %d, want %d", d, sup, st.Flops[PhaseT2], want)
			}
		}
	}
}

// checkPartition walks every job of sw the way sweepJob does and holds the
// visits against want, the per-target reference enumeration.
func checkPartition(t *testing.T, sw *sweep, phase Phase, want func(c geom.Coord3) []contrib) {
	t.Helper()
	if sw.phase != phase {
		t.Fatalf("sweep charges phase %v, want %v", sw.phase, phase)
	}
	dst := sw.shapes[0].dst
	for _, sh := range sw.shapes {
		if gridID(sh.dst.data) != gridID(dst.data) || sh.dst.grid != dst.grid {
			t.Fatalf("sweep writes two grids")
		}
	}
	owner := make([]int32, boxes(dst)) // job that visited the box, +1
	next := make([]int, boxes(dst))    // how many contributions the box has received
	var visits int64
	for i := 0; i < sw.jobs(); i++ {
		// A box belongs to one job, so its reference list lives only as
		// long as the job that owns it.
		wants := map[int][]contrib{}
		class, plane := i/sw.planes, i%sw.planes
		for li := sw.lo[class]; li < sw.lo[class+1]; li++ {
			lat := &sw.lats[li]
			p := plane - int(lat.p0)
			if p < 0 || p >= int(lat.nz) {
				continue
			}
			sh := sw.shapes[lat.shape]
			for r := 0; r < int(lat.ny); r++ {
				for x := 0; x < int(lat.nx); x++ {
					tb := int(lat.dst) + p*sh.dst.plane() + r*sh.dst.step*sh.dst.grid + x*sh.dst.step
					sb := int(lat.src) + p*sh.src.plane() + r*sh.src.step*sh.src.grid + x*sh.src.step
					c := coordOf(tb, dst)
					if owner[tb] != 0 && owner[tb] != int32(i+1) {
						t.Fatalf("box %v visited by jobs %d and %d", c, owner[tb]-1, i)
					}
					owner[tb] = int32(i + 1)
					w, ok := wants[tb]
					if !ok {
						w = want(c)
						wants[tb] = w
					}
					got := contrib{gridID(sh.src.data), sb, matrixID(lat.tt)}
					if next[tb] >= len(w) {
						t.Fatalf("box %v: extra contribution %v after its %d", c, got, next[tb])
					}
					if got != w[next[tb]] {
						t.Fatalf("box %v: contribution #%d is %v, want %v", c, next[tb], got, w[next[tb]])
					}
					next[tb]++
					visits++
				}
			}
		}
		for tb, w := range wants {
			if next[tb] != len(w) {
				t.Fatalf("box %v: received %d of %d contributions", coordOf(tb, dst), next[tb], len(w))
			}
		}
	}
	for b, o := range owner {
		if c := coordOf(b, dst); o == 0 && len(want(c)) != 0 {
			t.Fatalf("box %v: never visited, expects %d contributions", c, len(want(c)))
		}
	}
	if visits != sw.count {
		t.Errorf("%d visits, sweep count %d", visits, sw.count)
	}
}

// TestT2CancelMidSweepThenReuse cancels the context from inside an entry
// of every kind of the region list: a T1 sweep small enough to run inline
// on the caller, T1, T3, plain and supernode T2, leaf-outer, eval-local, and
// near-field rounds (the first, one in the middle and the last, pooled and
// inline, force and potential solves), here and again in a one-worker
// child, where every entry is the caller's own loop. The solve must return
// ctx.Err() having abandoned the rest of the entry; the abandoned entry
// must charge nothing and every finished one its work, held against closed
// forms (a sweep's translations, direct.FlopsPerPair, EvalLocalFlops, a
// round's pairs counted box by box); and the same Solver must then
// reproduce a fresh Solver's result bitwise (the half-written grids and
// mirrors are rebuilt, no job state survives).
func TestT2CancelMidSweepThenReuse(t *testing.T) {
	pos, q := uniformParticles(rand.New(rand.NewSource(72)), 6000)
	nearPos, nearQ := uniformParticles(rand.New(rand.NewSource(83)), 4000)
	depth4, depth3 := Config{Degree: 5, Depth: 4}, Config{Degree: 5, Depth: 3}
	for _, tc := range []struct {
		name  string
		cfg   Config
		phase Phase
		nth   int // the entry is the nth of its phase in list order; -1 is the last
		// near uses the near-field fixture; inline is the entry's flag once
		// it has run.
		near, force, inline bool
	}{
		{"T2", depth4, PhaseT2, 2, false, false, false},
		{"supernodes", Config{Degree: 5, Depth: 4, Supernodes: true}, PhaseT2, 2, false, false, false},
		{"T3", depth4, PhaseT3, 1, false, false, false},
		{"T1", Config{Degree: 5, Depth: 5}, PhaseUpward, 0, false, false, false},
		{"T1 inline", depth3, PhaseUpward, 0, false, false, true},
		{"leaf-outer", depth4, PhaseLeafOuter, 0, false, false, false},
		{"eval-local", depth4, PhaseEvalLocal, 0, false, true, false},
		{"near first", depth3, PhaseNear, 0, true, true, false},
		{"near middle", depth3, PhaseNear, 12, true, false, false},
		{"near last", depth3, PhaseNear, -1, true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pos, q := pos, q
			if tc.near {
				pos, q = nearPos, nearQ
			}
			solve := func(ctx context.Context, s *Solver) ([]float64, []geom.Vec3, error) {
				phi := make([]float64, len(pos))
				var acc []geom.Vec3
				if tc.force {
					acc = make([]geom.Vec3, len(pos))
				}
				return phi, acc, s.Solve(ctx, pos, q, phi, acc)
			}
			s, err := NewSolver(unitBox(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := entryOf(t, s, tc.phase, tc.nth)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The entry's jobs are counted from before; a near round's run
			// through the bodies all rounds share, after the jobs of the
			// rounds before it.
			var ran, before atomic.Int64
			wrap := func(body func(int)) func(int) {
				return func(i int) {
					if ran.Add(1)-before.Load() == 3 {
						cancel()
					}
					body(i)
				}
			}
			if tc.near {
				if err := s.prepare(pos, q); err != nil {
					t.Fatal(err)
				}
				for j := len(s.regions) - len(s.nearRounds); j < c; j++ {
					s.nearSplit(s.regions[j].round)
					before.Add(int64(len(s.nearLists[0]) + len(s.nearLists[1])))
				}
				for l, body := range s.nearBodies {
					s.nearBodies[l] = wrap(body)
				}
			} else {
				s.regions[c].body = wrap(s.regions[c].body)
			}
			if _, _, err := solve(ctx, s); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled solve returned %v, want context.Canceled", err)
			}
			r := &s.regions[c]
			jobs := int64(r.jobs)
			if tc.near {
				jobs = int64(len(s.nearLists[0]) + len(s.nearLists[1]))
			}
			if got := ran.Load() - before.Load(); got < 3 || got >= jobs {
				t.Fatalf("%d of %d jobs ran; the cancellation should land mid-entry", got, jobs)
			}
			if r.inline != tc.inline {
				t.Errorf("entry inline = %v, want %v", r.inline, tc.inline)
			}

			// The abandoned entry is not charged; the finished ones are.
			var flops [metrics.NumPhases]int64
			var t2, pairs int64
			n, k := int64(len(pos)), int64(s.ts.K)
			for j := 0; j < c; j++ {
				switch e := &s.regions[j]; e.phase {
				case PhaseLeafOuter:
					flops[e.phase] += n * k * direct.FlopsPerPair
				case PhaseEvalLocal:
					flops[e.phase] += EvalLocalFlops(len(pos), s.ts.K, s.cfg.M, tc.force)
				case PhaseNear:
					p := roundPairs(s, e.round)
					pairs += p
					flops[e.phase] += p * NearFlopsPerPair
				default:
					flops[e.phase] += e.count * blas.DgemmFlops(s.ts.K, s.ts.K, 1)
					if e.phase == PhaseT2 {
						t2 += e.count
					}
				}
			}
			st := s.Stats()
			for _, p := range []Phase{PhaseLeafOuter, PhaseUpward, PhaseT3, PhaseT2, PhaseEvalLocal, PhaseNear} {
				if st.Flops[p] != flops[p] {
					t.Errorf("canceled solve charged %d flops to %v, the finished entries hold %d", st.Flops[p], p, flops[p])
				}
			}
			if st.T2Count != t2 || st.NearPairs != pairs {
				t.Errorf("canceled solve counted %d conversions and %d pairs, the finished entries hold %d and %d",
					st.T2Count, st.NearPairs, t2, pairs)
			}

			gotPhi, gotAcc, err := solve(nil, s)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewSolver(unitBox(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantPhi, wantAcc, err := solve(nil, fresh)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantPhi {
				if gotPhi[i] != wantPhi[i] {
					t.Fatalf("potential %d after a canceled solve: %g, fresh solver %g", i, gotPhi[i], wantPhi[i])
				}
				if tc.force && gotAcc[i] != wantAcc[i] {
					t.Fatalf("field %d after a canceled solve: %v, fresh solver %v", i, gotAcc[i], wantAcc[i])
				}
			}
		})
	}
	if !inChild() {
		rerunAt(t, 1)
	}
}

// entryOf returns the index in the region list of the nth entry of phase p
// (the last for nth == -1).
func entryOf(t *testing.T, s *Solver, p Phase, nth int) int {
	t.Helper()
	var of []int
	for i := range s.regions {
		if s.regions[i].phase == p {
			of = append(of, i)
		}
	}
	if nth < 0 {
		nth += len(of)
	}
	if nth < 0 || nth >= len(of) {
		t.Fatalf("no entry %d of phase %v among %d", nth, p, len(of))
	}
	return of[nth]
}

// roundPairs counts a near round's unordered pairs box by box, from the
// occupancies alone: in the own-row round each box's pairs among its own
// particles and with the d boxes after it, otherwise each box of a row
// against the boxes of the other row at most d apart in x.
func roundPairs(s *Solver, r *nearRound) int64 {
	n, d, start := s.part.Grid, s.cfg.Separation, s.part.Start
	count := func(b int) int64 { return int64(start[b+1] - start[b]) }
	var pairs int64
	for _, row := range r.rows {
		for x := 0; x < n; x++ {
			tb := int(row)*n + x
			for dx := -d; dx <= d; dx++ {
				if x+dx < 0 || x+dx >= n {
					continue
				}
				sb := (int(row)+r.off)*n + x + dx
				switch {
				case r.off != 0 || dx > 0:
					pairs += count(tb) * count(sb)
				case dx == 0:
					pairs += count(tb) * (count(tb) - 1) / 2
				}
			}
		}
	}
	return pairs
}

// TestSupernodeSolveIndependentOfWorkerCount: the supernode sweep is
// owner-computes like the plain one, so in a child process at each of
// GOMAXPROCS 1, 2 and 4 a repeated solve reproduces itself bitwise, and the
// force and the potential solve each give the same bits at all three.
func TestSupernodeSolveIndependentOfWorkerCount(t *testing.T) {
	if !inChild() {
		sameHashesAtEveryWorkerCount(t, map[string][]string{
			simd.Scalar: {"force-hash=f0921b419e1d4739", "potential-hash=db92b1ad3e77f453"},
			simd.AVX2:   {"force-hash=7a10320ce323b86f", "potential-hash=475bd517e7a799ba"},
		})
		return
	}
	rng := rand.New(rand.NewSource(84))
	pos, q := uniformParticles(rng, 4096)
	s, err := NewSolver(unitBox(), Config{Degree: 7, Depth: 4, Supernodes: true})
	if err != nil {
		t.Fatal(err)
	}
	printRepeatedHashes(t, "force", func() ([]float64, []geom.Vec3, error) { return accelerations(s, pos, q) })
	printRepeatedHashes(t, "potential", func() ([]float64, []geom.Vec3, error) {
		phi, err := potentials(s, pos, q)
		return phi, nil, err
	})
}

// TestFarFieldSameBitsOnAVX2AndAVX512: the avx512 slab body keeps avx2's
// reduction order (internal/blas), so every expansion T1, T2 and T3 leave
// behind — far and loc at every level, before the near field — is bitwise
// the same on the two backends, plain and through supernodes, at the K = 12
// the avx512 body serves and at a K it hands back to avx2.
func TestFarFieldSameBitsOnAVX2AndAVX512(t *testing.T) {
	if !slices.Contains(simd.Supported(), simd.AVX512) {
		t.Skip("backend avx512 not supported on this host")
	}
	rng := rand.New(rand.NewSource(86))
	pos, q := uniformParticles(rng, 4096)
	for _, cfg := range []Config{
		{Degree: 5, Depth: 4},
		{Degree: 5, Depth: 4, Supernodes: true},
		{Degree: 7, Depth: 4, Supernodes: true},
	} {
		s, err := NewSolver(unitBox(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		expansions := func(be string) [][]float64 {
			var out [][]float64
			withBackend(t, be, func() {
				if _, err := potentials(s, pos, q); err != nil {
					t.Fatal(err)
				}
				for l := range s.loc {
					out = append(out, slices.Clone(s.far[l]), slices.Clone(s.loc[l]))
				}
			})
			return out
		}
		avx2, avx512 := expansions(simd.AVX2), expansions(simd.AVX512)
		for g := range avx2 {
			grid := [2]string{"far", "loc"}[g%2]
			for i := range avx2[g] {
				if avx2[g][i] != avx512[g][i] {
					t.Fatalf("K=%d supernodes=%v: %s[%d][%d] = %g on avx2, %g on avx512",
						s.ts.K, cfg.Supernodes, grid, g/2, i, avx2[g][i], avx512[g][i])
				}
			}
		}
	}
}

// withBackend runs f with the named backend active, restoring the
// previous backend afterwards.
func withBackend(t *testing.T, name string, f func()) {
	t.Helper()
	prev := simd.Active()
	if err := simd.SetBackend(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := simd.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}
