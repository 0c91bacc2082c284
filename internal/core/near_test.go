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
	"strings"
	"sync/atomic"
	"testing"

	"nbody/internal/direct"
	"nbody/internal/geom"
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

// TestNearRunSweepCoversNearFieldOnce checks the run addressing against an
// enumeration that shares nothing with it: for every depth and separation,
// on a set with empty, sparse and crowded boxes, each target must receive
// exactly the particles of its own and its near boxes — clipped at the grid
// edges — once each. All charges are positive, so a source missed or taken
// twice moves a sum by far more than rounding. The sweep's pair count must
// equal the closed form the flop accounting is built on.
func TestNearRunSweepCoversNearFieldOnce(t *testing.T) {
	for depth := 2; depth <= 4; depth++ {
		for sep := 1; sep <= 2; sep++ {
			for _, wantForce := range []bool{false, true} {
				t.Run(fmt.Sprintf("depth%d/sep%d/force=%v", depth, sep, wantForce), func(t *testing.T) {
					checkNearRunSweep(t, depth, sep, wantForce)
				})
			}
		}
	}
}

func checkNearRunSweep(t *testing.T, depth, sep int, wantForce bool) {
	rng := rand.New(rand.NewSource(int64(100*depth + sep)))
	// Half uniform (every edge and corner box populated), half in one blob
	// (crowded boxes), few enough that many depth-4 boxes stay empty.
	np := 1500
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
	s.prepare(pos, q)
	clear(s.phiS)
	clear(s.accS)
	s.in.pos, s.in.q, s.in.phi = pos, q, make([]float64, np)
	if wantForce {
		s.in.acc = make([]geom.Vec3, np)
	}
	defer s.clearSolveState()
	n := s.part.Grid
	for b := 0; b < n*n*n; b++ {
		s.nearRun(b)
	}

	cheb := func(a, b geom.Coord3) int {
		return max(a.X-b.X, b.X-a.X, a.Y-b.Y, b.Y-a.Y, a.Z-b.Z, b.Z-a.Z)
	}
	var wantPairs int64
	for tb := 0; tb < n*n*n; tb++ {
		tc := geom.CoordFromIndex(tb, n)
		tLo, tHi := s.part.Start[tb], s.part.Start[tb+1]
		tn := int64(tHi - tLo)
		wantPairs += tn * (tn - 1) / 2
		for sb := 0; sb < n*n*n; sb++ {
			if cheb(tc, geom.CoordFromIndex(sb, n)) > sep {
				continue
			}
			sLo, sHi := s.part.Start[sb], s.part.Start[sb+1]
			if sb != tb {
				wantPairs += tn * int64(sHi-sLo)
			}
		}
	}
	if got := s.nearPairs.Load(); got != wantPairs {
		t.Errorf("sweep counted %d pairs, closed form %d", got, wantPairs)
	}

	for tb := 0; tb < n*n*n; tb++ {
		tc := geom.CoordFromIndex(tb, n)
		for i := s.part.Start[tb]; i < s.part.Start[tb+1]; i++ {
			var phi float64
			var acc geom.Vec3
			for sb := 0; sb < n*n*n; sb++ {
				if cheb(tc, geom.CoordFromIndex(sb, n)) > sep {
					continue
				}
				for j := s.part.Start[sb]; j < s.part.Start[sb+1]; j++ {
					if j == i {
						continue
					}
					d := s.posS[j].Sub(s.posS[i])
					r := d.Norm()
					phi += s.qS[j] / r
					acc = acc.Add(d.Scale(s.qS[j] / (r * r * r)))
				}
			}
			if math.Abs(s.phiS[i]-phi) > 1e-11*phi {
				t.Fatalf("box %v particle %d: phi %g, near boxes hold %g", tc, i, s.phiS[i], phi)
			}
			if wantForce && s.accS[i].Sub(acc).Norm() > 1e-9*(acc.Norm()+phi) {
				t.Fatalf("box %v particle %d: acc %v, near boxes give %v", tc, i, s.accS[i], acc)
			}
		}
	}
}

// TestNearFlopsFollowPairs is the core twin of the data-parallel solver's
// closed-form check: near-field flops are pairs times the per-pair charge,
// on the run sweep as on the symmetric one.
func TestNearFlopsFollowPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pos, q := uniformParticles(rng, 3000)
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Accelerations(pos, q); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.NearPairs == 0 || st.Flops[PhaseNear] != st.NearPairs*direct.FlopsPerPair {
		t.Errorf("near flops %d for %d pairs", st.Flops[PhaseNear], st.NearPairs)
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

// TestForceSolveIndependentOfWorkerCount: one-sided per-box sweeps make a
// force solve's bits a function of the input alone. Resumed simulate
// streams rely on it — a checkpoint written on a two-core replica and
// resumed on a one-core one must continue the same trajectory.
func TestForceSolveIndependentOfWorkerCount(t *testing.T) {
	if inChild() {
		rng := rand.New(rand.NewSource(82))
		pos, q := plummerParticles(rng, 4096)
		s, err := NewSolver(plummerBox(), Config{Degree: 5, Depth: 3})
		if err != nil {
			t.Fatal(err)
		}
		phi, acc, err := s.Accelerations(pos, q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("force-hash=%016x\n", solveHash(phi, acc))
		return
	}
	hashAt := func(procs int) string {
		for _, line := range strings.Split(rerunAt(t, procs), "\n") {
			if strings.HasPrefix(line, "force-hash=") {
				return line
			}
		}
		t.Fatalf("child at GOMAXPROCS=%d printed no hash", procs)
		return ""
	}
	want := hashAt(1)
	for _, procs := range []int{2, 4} {
		if got := hashAt(procs); got != want {
			t.Errorf("GOMAXPROCS=%d: %s, GOMAXPROCS=1: %s", procs, got, want)
		}
	}
}

// TestNearCancelMidSweepThenReuse cancels from inside the near-field region
// of a force solve, here and again in a one-worker child (where the region
// is the caller's own chunked loop): the solve must return ctx.Err() having
// abandoned the rest of the region, count no near-field work, and leave the
// Solver reproducing a fresh Solver's result bitwise.
func TestNearCancelMidSweepThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pos, q := uniformParticles(rng, 4000)
	cfg := Config{Degree: 5, Depth: 3}
	s, err := NewSolver(unitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := s.nearRun
	var ran atomic.Int64
	s.nearRun = func(b int) {
		if ran.Add(1) == 3 {
			cancel()
		}
		run(b)
	}
	_, _, err = s.AccelerationsCtx(ctx, pos, q)
	s.nearRun = run
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve returned %v, want context.Canceled", err)
	}
	boxes := int64(s.hier.NumBoxes(cfg.Depth))
	if got := ran.Load(); got < 3 || got >= boxes {
		t.Fatalf("%d of %d boxes ran; the cancellation should land mid-region", got, boxes)
	}
	if got := s.Stats().NearPairs; got != 0 {
		t.Errorf("canceled near field counted %d pairs", got)
	}

	gotPhi, gotAcc, err := s.Accelerations(pos, q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSolver(unitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPhi, wantAcc, err := fresh.Accelerations(pos, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPhi {
		if gotPhi[i] != wantPhi[i] || gotAcc[i] != wantAcc[i] {
			t.Fatalf("particle %d after a canceled solve: (%g, %v), fresh solver (%g, %v)",
				i, gotPhi[i], gotAcc[i], wantPhi[i], wantAcc[i])
		}
	}
	if !inChild() {
		rerunAt(t, 1)
	}
}
