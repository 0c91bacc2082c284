package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"nbody/internal/geom"
	"nbody/internal/simd"
	"nbody/internal/tree"
)

// plummerBox is the domain of the clustered fixtures: the unit cube the
// generator fills, times 1.5 (the bench's step_plummer shape).
func plummerBox() geom.Box3 {
	return geom.Box3{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1.5}
}

// plummerParticles returns an n-body Plummer sphere of total mass 1,
// truncated at 8 scale lengths and rescaled into the unit cube: a few leaf
// boxes at the centre hold almost every particle, the occupancy the
// near-field sweep has to balance.
func plummerParticles(rng *rand.Rand, n int) ([]geom.Vec3, []float64) {
	const maxR = 8.0
	pos := make([]geom.Vec3, n)
	q := make([]float64, n)
	for i := range pos {
		r := maxR
		for r >= maxR {
			r = 1 / math.Sqrt(math.Pow(rng.Float64(), -2.0/3.0)-1)
		}
		z := 2*rng.Float64() - 1
		az := 2 * math.Pi * rng.Float64()
		sxy := math.Sqrt(1 - z*z)
		p := geom.Vec3{X: r * sxy * math.Cos(az), Y: r * sxy * math.Sin(az), Z: r * z}
		pos[i] = geom.Vec3{X: (p.X + maxR) / (2 * maxR), Y: (p.Y + maxR) / (2 * maxR), Z: (p.Z + maxR) / (2 * maxR)}
		q[i] = 1 / float64(n)
	}
	return pos, q
}

// runNearSweep runs the near-field sweep alone on a prepared Solver, from
// zeroed accumulators, round by round on the calling goroutine.
func runNearSweep(t *testing.T, s *Solver, pos []geom.Vec3, q []float64, wantForce bool) {
	t.Helper()
	s.prepare(pos, q)
	for _, plane := range [][]float64{s.phiS, s.gx, s.gy, s.gz} {
		clear(plane)
	}
	s.in.pos, s.in.q, s.in.phi = pos, q, make([]float64, len(pos))
	if wantForce {
		s.in.acc = make([]geom.Vec3, len(pos))
	}
	t.Cleanup(s.clearSolveState)
	s.nearField()
}

// TestNearRunSweepCoversNearFieldOnce checks the round list and its run
// addressing against an enumeration that shares nothing with them
// (tree.NearOffsets, box by box): for every depth and separation, on a set
// with empty, sparse and crowded boxes, each particle must receive exactly
// the particles of its own and its near boxes — clipped at the grid edges —
// once each, from whichever side of the pair the sweep happened to visit.
// All charges are positive, so a pair missed or taken twice moves a sum by
// far more than rounding. The sweep's pair count must be the number of
// unordered pairs, the closed form the flop accounting is built on.
func TestNearRunSweepCoversNearFieldOnce(t *testing.T) {
	for depth := 2; depth <= 4; depth++ {
		for sep := 1; sep <= 2; sep++ {
			for _, wantForce := range []bool{false, true} {
				t.Run(fmt.Sprintf("depth%d/sep%d/force=%v", depth, sep, wantForce), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*depth + sep)))
					// Half uniform (every edge and corner box populated), half
					// in one blob (crowded boxes), few enough that many depth-4
					// boxes stay empty.
					const np = 1500
					pos, q := uniformParticles(rng, np)
					for i := np / 2; i < np; i++ {
						pos[i] = geom.Vec3{X: 0.3 + 0.1*rng.Float64(), Y: 0.6 + 0.1*rng.Float64(), Z: 0.1 * rng.Float64()}
					}
					cfg := Config{Degree: 5, Depth: depth, Separation: sep}
					if sep == 1 {
						cfg.RadiusRatio = 0.95 // the default outer sphere needs d = 2
					}
					s, err := NewSolver(unitBox(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkNearRunSweep(t, s, pos, q, sep, wantForce)
				})
			}
		}
	}
	// Rows crowded enough to be split into tiles (the bench's step_plummer
	// shape; TestNearSplitTilesDisjoint checks that it is).
	for _, wantForce := range []bool{false, true} {
		t.Run(fmt.Sprintf("tiles/force=%v", wantForce), func(t *testing.T) {
			pos, q := plummerParticles(rand.New(rand.NewSource(87)), 8192)
			s, err := NewSolver(plummerBox(), Config{Degree: 5, Depth: 3})
			if err != nil {
				t.Fatal(err)
			}
			checkNearRunSweep(t, s, pos, q, 2, wantForce)
		})
	}
}

func checkNearRunSweep(t *testing.T, s *Solver, pos []geom.Vec3, q []float64, sep int, wantForce bool) {
	runNearSweep(t, s, pos, q, wantForce)

	n := s.part.Grid
	offsets := append([]geom.Coord3{{}}, tree.NearOffsets(sep)...)
	var ordered int64 // (target, source) pairs, each unordered pair seen from both ends
	for tb := 0; tb < n*n*n; tb++ {
		tc := geom.CoordFromIndex(tb, n)
		for i := s.part.Start[tb]; i < s.part.Start[tb+1]; i++ {
			var phi float64
			var acc geom.Vec3
			for _, o := range offsets {
				sc := tc.Add(o)
				if !sc.In(n) {
					continue
				}
				sb := sc.Index(n)
				for j := s.part.Start[sb]; j < s.part.Start[sb+1]; j++ {
					if j == i {
						continue
					}
					ordered++
					d := s.posAt(j).Sub(s.posAt(i))
					r := d.Norm()
					phi += s.qS[j] / r
					acc = acc.Add(d.Scale(s.qS[j] / (r * r * r)))
				}
			}
			if math.Abs(s.phiS[i]-phi) > 1e-11*phi {
				t.Fatalf("box %v particle %d: phi %g, near boxes hold %g", tc, i, s.phiS[i], phi)
			}
			got := geom.Vec3{X: s.gx[i], Y: s.gy[i], Z: s.gz[i]}
			if wantForce && got.Sub(acc).Norm() > 1e-9*(acc.Norm()+phi) {
				t.Fatalf("box %v particle %d: acc %v, near boxes give %v", tc, i, got, acc)
			}
		}
	}
	if got := s.nearPairs.Load(); got != ordered/2 {
		t.Errorf("sweep counted %d pairs, the near boxes hold %d unordered pairs", got, ordered/2)
	}
}

// TestNearRoundsPartitionRowPairs is the schedule's own check, in the manner
// of TestT2SweepPartition: over the whole round list every unordered pair of
// x-rows at most d apart in y and z — a row with itself included — is some
// job's pair exactly once, and within a round no row is written by two jobs
// (a job writes its own row and the row one offset up), which is what lets
// jobs deposit in place without synchronization. Jobs next to each other in
// a round's list, which the pool runs together, are never rows next to each
// other in memory — except in a round confined to one z-plane, which a
// 4-wide grid can leave with nothing but adjacent rows ([4 5], [5 7 6]).
func TestNearRoundsPartitionRowPairs(t *testing.T) {
	for depth := 2; depth <= 4; depth++ {
		for sep := 1; sep <= 2; sep++ {
			n := 1 << depth
			seen := map[[2]int]int{}
			for ri, r := range buildNearRounds(n, sep) {
				if len(r.rows) == 0 {
					t.Errorf("depth %d sep %d: round %d has no job", depth, sep, ri)
				}
				if r.rows[0]/int32(n) != r.rows[len(r.rows)-1]/int32(n) {
					for i := 1; i < len(r.rows); i++ {
						if d := r.rows[i] - r.rows[i-1]; d == 1 || d == -1 {
							t.Errorf("depth %d sep %d round %d: rows %d and %d are adjacent in the list and in memory",
								depth, sep, ri, r.rows[i-1], r.rows[i])
						}
					}
				}
				writer := map[int]int{}
				for job, row := range r.rows {
					a, b := int(row), int(row)+r.off
					seen[[2]int{a, b}]++
					for _, w := range []int{a, b} {
						if prev, ok := writer[w]; ok && prev != job {
							t.Errorf("depth %d sep %d round %d: jobs %d and %d both write row %d", depth, sep, ri, prev, job, w)
						}
						writer[w] = job
					}
				}
			}
			want := 0
			for a := 0; a < n*n; a++ {
				for b := a; b < n*n; b++ {
					if max(b%n-a%n, a%n-b%n, b/n-a/n) > sep {
						continue
					}
					want++
					if seen[[2]int{a, b}] != 1 {
						t.Errorf("depth %d sep %d: row pair (%d, %d) visited %d times", depth, sep, a, b, seen[[2]int{a, b}])
					}
				}
			}
			if len(seen) != want {
				t.Errorf("depth %d sep %d: %d row pairs visited, %d are near", depth, sep, len(seen), want)
			}
		}
	}
}

// TestNearSplitTilesDisjoint checks the job lists a solve actually runs, on
// the clustered fixture whose crowded rows are split: within a list no
// particle is written by two jobs (a job writes its target range and its
// source range), and the jobs of one row pair tile the pair's full
// targets x sources rectangle exactly.
func TestNearSplitTilesDisjoint(t *testing.T) {
	pos, q := plummerParticles(rand.New(rand.NewSource(87)), 8192)
	s, err := NewSolver(plummerBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.prepare(pos, q)
	n, start := s.part.Grid, s.part.Start
	tiles := 0
	for ri := range s.nearRounds {
		first, second, _ := s.nearSplit(&s.nearRounds[ri])
		tiles += len(second)
		area := map[[2]int]int{}
		for li, jobs := range [][]nearJob{first, second} {
			writer := make([]int, len(pos))
			for ji, j := range jobs {
				// A tile may be taken transposed: key it by the unordered row pair.
				area[[2]int{min(j.row, j.other), max(j.row, j.other)}] += (j.tHi - j.tLo) * (j.sHi - j.sLo)
				ranges := [][2]int{{j.tLo, j.tHi}}
				if j.other != j.row {
					ranges = append(ranges, [2]int{j.sLo, j.sHi})
				}
				for _, rg := range ranges {
					for p := rg[0]; p < rg[1]; p++ {
						if writer[p] != 0 {
							t.Fatalf("round %d list %d: jobs %d and %d both write particle %d", ri, li, writer[p]-1, ji, p)
						}
						writer[p] = ji + 1
					}
				}
			}
		}
		for _, row := range s.nearRounds[ri].rows {
			a, b := int(row), int(row)+s.nearRounds[ri].off
			want := (start[(a+1)*n] - start[a*n]) * (start[(b+1)*n] - start[b*n])
			if got := area[[2]int{a, b}]; got != want {
				t.Errorf("round %d rows (%d, %d): jobs cover %d target-source pairs of %d", ri, a, b, got, want)
			}
		}
	}
	if tiles == 0 {
		t.Error("no row pair of the Plummer fixture was split into tiles")
	}
}

// TestNearFieldConservesMomentum is what Newton's third law buys beyond
// speed: each pair deposits equal and opposite fields weighted by the other
// particle's charge, so over the near contribution of a force solve
// sum_i q_i a_i vanishes to rounding — pair by pair, not by cancellation of
// independently rounded one-sided sums.
func TestNearFieldConservesMomentum(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	pos, q := plummerParticles(rng, 4096)
	s, err := NewSolver(plummerBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	runNearSweep(t, s, pos, q, true)
	var sum geom.Vec3
	var scale float64
	for i := range s.qS {
		f := geom.Vec3{X: s.gx[i], Y: s.gy[i], Z: s.gz[i]}.Scale(s.qS[i])
		sum = sum.Add(f)
		scale += f.Norm()
	}
	if scale == 0 || sum.Norm() > 1e-13*scale {
		t.Errorf("sum q_i a_i = %v over forces of total magnitude %g", sum, scale)
	}
}

// TestNearFlopsFollowPairs is the core twin of the data-parallel solver's
// closed-form check: near-field flops are unordered pairs times the per-pair
// charge, for potential and force solves alike.
func TestNearFlopsFollowPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pos, q := uniformParticles(rng, 3000)
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := accelerations(s, pos, q); err != nil {
		t.Fatal(err)
	}
	st := *s.Stats()
	if st.NearPairs == 0 || st.Flops[PhaseNear] != st.NearPairs*NearFlopsPerPair {
		t.Errorf("near flops %d for %d pairs", st.Flops[PhaseNear], st.NearPairs)
	}
	if _, err := potentials(s, pos, q); err != nil {
		t.Fatal(err)
	}
	if d := s.Stats().Diff(&st); d.NearPairs != st.NearPairs || d.Flops[PhaseNear] != st.Flops[PhaseNear] {
		t.Errorf("a potential solve counted %d pairs (%d flops), the force solve %d (%d)",
			d.NearPairs, d.Flops[PhaseNear], st.NearPairs, st.Flops[PhaseNear])
	}
}

// childEnv marks a test process started by rerunAt. The scheduler sizes its
// pool once per process, so a test that needs a particular worker count
// runs itself again in a child with GOMAXPROCS set.
const childEnv = "NBODY_CORE_TEST_CHILD"

func inChild() bool { return os.Getenv(childEnv) != "" }

// rerunAt runs the calling test alone in a child process with the given
// GOMAXPROCS and returns the child's output; a failing child fails the test.
func rerunAt(t *testing.T, procs int) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", procs))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child at GOMAXPROCS=%d: %v\n%s", procs, err, out)
	}
	return string(out)
}

// solveHash hashes the bits of a solve's results (acc may be nil).
func solveHash(phi []float64, acc []geom.Vec3) uint64 {
	h := fnv.New64a()
	for i := range phi {
		fmt.Fprintf(h, "%x\n", math.Float64bits(phi[i]))
		if acc != nil {
			fmt.Fprintf(h, "%x %x %x\n",
				math.Float64bits(acc[i].X), math.Float64bits(acc[i].Y), math.Float64bits(acc[i].Z))
		}
	}
	return h.Sum64()
}

// sameHashesAtEveryWorkerCount reruns the calling test in a child at
// GOMAXPROCS 1, 2 and 4 and requires the "-hash=" lines the children print
// to be the same, line for line, and on amd64 to be pinned[backend] when the
// active backend has an entry: the bits a change to the solver must keep.
// avx512 carries no entry — its VRSQRT14PD seed is the CPU's, so its bits
// are pinned per kernel by the order tests instead.
func sameHashesAtEveryWorkerCount(t *testing.T, pinned map[string][]string) {
	t.Helper()
	var want []string
	for _, procs := range []int{1, 2, 4} {
		var got []string
		for _, line := range strings.Split(rerunAt(t, procs), "\n") {
			if strings.Contains(line, "-hash=") {
				got = append(got, line)
			}
		}
		if len(got) == 0 {
			t.Fatalf("child at GOMAXPROCS=%d printed no hash", procs)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: %v, GOMAXPROCS=1: %v", procs, got, want)
		}
	}
	if pin, ok := pinned[simd.Active()]; ok && runtime.GOARCH == "amd64" && !slices.Equal(want, pin) {
		t.Errorf("backend %s: %v, pinned %v", simd.Active(), want, pin)
	}
}

// printRepeatedHashes solves twice, requires the repeat to reproduce the
// first bit for bit, and prints the hash for the parent to compare.
func printRepeatedHashes(t *testing.T, kind string, solve func() ([]float64, []geom.Vec3, error)) {
	t.Helper()
	var first uint64
	for rep := 0; rep < 2; rep++ {
		phi, acc, err := solve()
		if err != nil {
			t.Fatal(err)
		}
		h := solveHash(phi, acc)
		if rep == 0 {
			first = h
		} else if h != first {
			t.Fatalf("repeated %s solve: %016x, then %016x", kind, first, h)
		}
	}
	fmt.Printf("%s-hash=%016x\n", kind, first)
}

// TestForceSolveIndependentOfWorkerCount: every sweep gives a particle its
// contributions in an order fixed by the input, so a force solve's bits are
// a function of the input alone. Resumed simulate streams rely on it — a
// checkpoint written on a two-core replica and resumed on a one-core one
// must continue the same trajectory.
func TestForceSolveIndependentOfWorkerCount(t *testing.T) {
	if !inChild() {
		sameHashesAtEveryWorkerCount(t, map[string][]string{
			simd.Scalar: {"force-hash=a5bd49884a6966ba"},
			simd.AVX2:   {"force-hash=ad25dc48e85a2aa5"},
		})
		return
	}
	rng := rand.New(rand.NewSource(82))
	pos, q := plummerParticles(rng, 4096)
	s, err := NewSolver(plummerBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	printRepeatedHashes(t, "force", func() ([]float64, []geom.Vec3, error) { return accelerations(s, pos, q) })
}

// TestPotentialSolveIndependentOfWorkerCount is the potential twin, on the
// clustered fixture and on the uniform depth-4 one: idempotent replay and
// plan reuse hand one request's answer to another, whichever replica, with
// however many cores, computed it.
func TestPotentialSolveIndependentOfWorkerCount(t *testing.T) {
	if !inChild() {
		sameHashesAtEveryWorkerCount(t, map[string][]string{
			simd.Scalar: {"plummer-potential-hash=5ac2ea412fb55247", "uniform-potential-hash=dbe64f21a0f4e95e"},
			simd.AVX2:   {"plummer-potential-hash=9dd9bc84a0807444", "uniform-potential-hash=bc077a30bad4b894"},
		})
		return
	}
	rng := rand.New(rand.NewSource(86))
	for _, fx := range []struct {
		name string
		box  geom.Box3
		cfg  Config
		gen  func(*rand.Rand, int) ([]geom.Vec3, []float64)
	}{
		{"plummer", plummerBox(), Config{Degree: 5, Depth: 3}, plummerParticles},
		{"uniform", unitBox(), Config{Degree: 5, Depth: 4}, uniformParticles},
	} {
		pos, q := fx.gen(rng, 4096)
		s, err := NewSolver(fx.box, fx.cfg)
		if err != nil {
			t.Fatal(err)
		}
		printRepeatedHashes(t, fx.name+"-potential", func() ([]float64, []geom.Vec3, error) {
			phi, err := potentials(s, pos, q)
			return phi, nil, err
		})
	}
}

// TestNearCancelMidSweepThenReuse cancels from inside a near-field round —
// the first, one in the middle of the list and a late one, in a force and
// in a potential solve — here and again in a one-worker child (where a
// round is the caller's own loop): the solve must return ctx.Err() having
// abandoned the rest of the sweep, count no near-field work, and leave the
// Solver reproducing a fresh Solver's result bitwise.
func TestNearCancelMidSweepThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pos, q := uniformParticles(rng, 4000)
	cfg := Config{Degree: 5, Depth: 3}
	fresh, err := NewSolver(unitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPhi, wantAcc, err := accelerations(fresh, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	var jobs int64
	for _, r := range fresh.nearRounds {
		jobs += int64(len(r.rows))
	}
	// The late point leaves more jobs unstarted than a pool has workers: each
	// may have passed its last context check when the cancellation lands.
	for i, cancelAt := range []int64{3, jobs / 2, jobs - 10} {
		s, err := NewSolver(unitBox(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		run := s.nearRun
		var ran atomic.Int64
		s.nearRun = func(job int) {
			if ran.Add(1) == cancelAt {
				cancel()
			}
			run(job)
		}
		if i%2 == 0 {
			err = s.Solve(ctx, pos, q, make([]float64, len(pos)), make([]geom.Vec3, len(pos)))
		} else {
			err = s.Solve(ctx, pos, q, make([]float64, len(pos)), nil)
		}
		s.nearRun = run
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at job %d: solve returned %v, want context.Canceled", cancelAt, err)
		}
		if got := ran.Load(); got < cancelAt || got >= jobs {
			t.Fatalf("cancel at job %d: %d of %d jobs ran; the cancellation should land mid-sweep", cancelAt, got, jobs)
		}
		if got := s.Stats().NearPairs; got != 0 {
			t.Errorf("cancel at job %d: canceled near field counted %d pairs", cancelAt, got)
		}

		gotPhi, gotAcc, err := accelerations(s, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantPhi {
			if gotPhi[i] != wantPhi[i] || gotAcc[i] != wantAcc[i] {
				t.Fatalf("particle %d after a solve canceled at job %d: (%g, %v), fresh solver (%g, %v)",
					i, cancelAt, gotPhi[i], gotAcc[i], wantPhi[i], wantAcc[i])
			}
		}
	}
	if !inChild() {
		rerunAt(t, 1)
	}
}
