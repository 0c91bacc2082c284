package nbody_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"nbody"
	"nbody/internal/core"
	"nbody/internal/core2"
	"nbody/internal/direct"
	"nbody/internal/dp"
	"nbody/internal/dpfmm"
	"nbody/internal/faults"
	"nbody/internal/metrics"
	"nbody/internal/pipeline"
	"nbody/internal/resilience"
	"nbody/internal/testutil"
)

// boundFast is the worst-case relative error of the D=5 configuration
// against the direct reference (matching internal/testutil's differential
// suite); the post-fault re-solve checks use it to prove the solver is not
// just alive but still correct.
const boundFast = 5e-2

// faultPhase maps every fault site to the metrics phase name the resulting
// InternalError must report.
var faultPhase = map[string]string{
	core.FaultSiteSort:          "sort",
	core.FaultSiteLeafOuter:     "leaf-outer",
	core.FaultSiteLeafOuterBody: "leaf-outer",
	core.FaultSiteT1:            "upward-T1",
	core.FaultSiteT2:            "convert-T2",
	core.FaultSiteT3:            "downward-T3",
	core.FaultSiteEval:          "eval-local",
	core.FaultSiteNear:          "near-field",
	core.FaultSiteNearBody:      "near-field",

	core2.FaultSiteSort:      "sort",
	core2.FaultSiteLeafOuter: "leaf-outer",
	core2.FaultSiteT1:        "upward-T1",
	core2.FaultSiteT2:        "convert-T2",
	core2.FaultSiteT3:        "downward-T3",
	core2.FaultSiteEval:      "eval-local",
	core2.FaultSiteNear:      "near-field",

	dpfmm.FaultSiteSort:      "sort",
	dpfmm.FaultSiteLeafOuter: "leaf-outer",
	dpfmm.FaultSiteT1:        "upward-T1",
	dpfmm.FaultSiteT3:        "downward-T3",
	dpfmm.FaultSiteGhost:     "ghost",
	dpfmm.FaultSiteT2:        "convert-T2",
	dpfmm.FaultSiteEval:      "eval-local",
	dpfmm.FaultSiteNear:      "near-field",
}

// expectInternal asserts err is an *InternalError attributed to the phase
// the site belongs to.
func expectInternal(t *testing.T, site string, err error) {
	t.Helper()
	var ie *nbody.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("site %s: got %v (%T), want *InternalError", site, err, err)
	}
	if want := faultPhase[site]; ie.Phase != want {
		t.Errorf("site %s: attributed to phase %q, want %q", site, ie.Phase, want)
	}
	if len(ie.Stack) == 0 {
		t.Errorf("site %s: InternalError carries no stack", site)
	}
}

// TestFaultInjectionAnderson injects a panic at every fault site of the
// shared-memory pipeline, including the two in-worker body sites, and
// proves each surfaces as an *InternalError naming the phase — then that
// the very same solver completes a clean solve within differential bounds.
func TestFaultInjectionAnderson(t *testing.T) {
	defer faults.Reset()
	sys := nbody.NewUniformSystem(2048, 1)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(sys.Positions, sys.Charges)

	sites := append([]string{}, core.FaultSites...)
	sites = append(sites, core.FaultSiteLeafOuterBody, core.FaultSiteNearBody)
	for _, site := range sites {
		faults.InjectPanic(site, "injected: "+site)
		_, err := a.Potentials(sys)
		expectInternal(t, site, err)
		faults.Reset()

		phi, err := a.Potentials(sys)
		if err != nil {
			t.Fatalf("site %s: clean re-solve failed: %v", site, err)
		}
		testutil.CheckClose(t, site+" re-solve", phi, want, boundFast)
	}
}

// TestFaultInjectionDataParallel is the same matrix on the simulated
// machine, covering the ghost phase the shared-memory solver does not have.
func TestFaultInjectionDataParallel(t *testing.T) {
	defer faults.Reset()
	sys := nbody.NewUniformSystem(512, 2)
	box := sys.BoundingBox()
	d, err := nbody.NewDataParallel(8, box, nbody.Options{Depth: 3}, dpfmm.DirectUnaliased)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(sys.Positions, sys.Charges)

	for _, site := range dpfmm.FaultSites {
		faults.InjectPanic(site, "injected: "+site)
		_, err := d.Potentials(sys)
		expectInternal(t, site, err)
		faults.Reset()

		phi, err := d.Potentials(sys)
		if err != nil {
			t.Fatalf("site %s: clean re-solve failed: %v", site, err)
		}
		testutil.CheckClose(t, site+" re-solve", phi, want, boundFast)
	}
}

func random2D(n int, seed int64) ([]nbody.Vec2, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]nbody.Vec2, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = nbody.Vec2{X: rng.Float64(), Y: rng.Float64()}
		q[i] = rng.Float64()
	}
	return pos, q
}

// TestFaultInjectionAnderson2D runs the matrix on the 2-D pipeline.
func TestFaultInjectionAnderson2D(t *testing.T) {
	defer faults.Reset()
	pos, q := random2D(1024, 3)
	box := nbody.Box2D{Center: nbody.Vec2{X: 0.5, Y: 0.5}, Side: 1.0000001}
	a, err := nbody.NewAnderson2D(box, nbody.Options2D{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := nbody.DirectPotentials2D(pos, q)

	for _, site := range core2.FaultSites {
		faults.InjectPanic(site, "injected: "+site)
		_, err := a.Potentials(pos, q)
		expectInternal(t, site, err)
		faults.Reset()

		phi, err := a.Potentials(pos, q)
		if err != nil {
			t.Fatalf("site %s: clean re-solve failed: %v", site, err)
		}
		testutil.CheckClose(t, site+" re-solve", phi, want, 1e-3)
	}
}

// TestFaultInjectionSimulationStep proves a panic during a leapfrog step
// surfaces as an *InternalError wrapped in the step error, leaves the
// simulation usable, and that the following step succeeds.
func TestFaultInjectionSimulationStep(t *testing.T) {
	defer faults.Reset()
	sys := nbody.NewUniformSystem(1024, 4)
	box := nbody.Box{Center: nbody.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 100}
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := nbody.NewSimulation(sys, nil, a, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	faults.InjectPanic(core.FaultSiteNear, "injected: step")
	err = sim.Step(1)
	var ie *nbody.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("Step: got %v, want wrapped *InternalError", err)
	}
	faults.Reset()
	if err := sim.Step(1); err != nil {
		t.Fatalf("step after contained panic: %v", err)
	}
}

// TestNaNInjectionThenCleanResolve poisons a mid-pipeline buffer with NaN
// (silent corruption, not a panic), observes the poisoned output, and then
// proves a clean re-solve into the same caller buffer is fully repaired —
// the buffer-hygiene half of the safe-to-retry contract.
func TestNaNInjectionThenCleanResolve(t *testing.T) {
	defer faults.Reset()
	sys := nbody.NewUniformSystem(2048, 5)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(sys.Positions, sys.Charges)
	phi := make([]float64, sys.Len())

	faults.InjectNaN(core.FaultSiteLeafOuter)
	if err := a.PotentialsInto(phi, sys); err != nil {
		t.Fatalf("poisoned solve errored: %v", err)
	}
	poisoned := false
	for _, v := range phi {
		if math.IsNaN(v) {
			poisoned = true
			break
		}
	}
	if !poisoned {
		t.Fatal("NaN injection did not reach the output")
	}
	faults.Reset()
	if err := a.PotentialsInto(phi, sys); err != nil {
		t.Fatalf("clean re-solve: %v", err)
	}
	testutil.CheckClose(t, "post-NaN re-solve", phi, want, boundFast)
}

// TestCancellationAbortsSolve is the acceptance criterion for cancellation:
// on the paper's K=12 depth-4 configuration, a context canceled a few
// milliseconds in aborts the solve in a small fraction of the full solve
// time, returning ctx.Err(), and the solver remains usable.
func TestCancellationAbortsSolve(t *testing.T) {
	n := 32768
	if testing.Short() {
		n = 8192
	}
	sys := nbody.NewUniformSystem(n, 6)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Degree: 5, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	phi := make([]float64, n)

	start := time.Now()
	if err := a.PotentialsInto(phi, sys); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	// Pre-canceled context: nothing but validation and the sort prologue
	// may run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.PotentialsIntoCtx(ctx, phi, sys); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: got %v, want context.Canceled", err)
	}

	// Deadline mid-solve: must abort within one chunk of work, far below
	// the full solve time.
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start = time.Now()
	err = a.PotentialsIntoCtx(ctx, phi, sys)
	aborted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: got %v, want context.DeadlineExceeded", err)
	}
	if full > 50*time.Millisecond && aborted > full/2 {
		t.Errorf("canceled solve took %v, full solve %v: cancellation is not prompt", aborted, full)
	}
	t.Logf("full solve %v, canceled solve %v", full, aborted)

	// The solver must still produce correct answers after an abort.
	if err := a.PotentialsInto(phi, sys); err != nil {
		t.Fatalf("solve after cancel: %v", err)
	}
}

// TestValidate is the input-validation table: each malformed system must be
// rejected with the right sentinel before any solving starts.
func TestValidate(t *testing.T) {
	box := nbody.Box{Center: nbody.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}
	ok := nbody.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	cases := []struct {
		name string
		sys  nbody.System
		want error
	}{
		{"empty", nbody.System{}, nil},
		{"valid", nbody.System{Positions: []nbody.Vec3{ok}, Charges: []float64{1}}, nil},
		{"length mismatch", nbody.System{Positions: []nbody.Vec3{ok}, Charges: []float64{1, 2}}, nbody.ErrInvalidSystem},
		{"NaN position", nbody.System{Positions: []nbody.Vec3{{X: math.NaN(), Y: 0.5, Z: 0.5}}, Charges: []float64{1}}, nbody.ErrInvalidSystem},
		{"Inf position", nbody.System{Positions: []nbody.Vec3{{X: math.Inf(1), Y: 0.5, Z: 0.5}}, Charges: []float64{1}}, nbody.ErrInvalidSystem},
		{"NaN charge", nbody.System{Positions: []nbody.Vec3{ok}, Charges: []float64{math.NaN()}}, nbody.ErrInvalidSystem},
		{"Inf charge", nbody.System{Positions: []nbody.Vec3{ok}, Charges: []float64{math.Inf(-1)}}, nbody.ErrInvalidSystem},
		{"out of domain", nbody.System{Positions: []nbody.Vec3{{X: 1.5, Y: 0.5, Z: 0.5}}, Charges: []float64{1}}, nbody.ErrOutOfDomain},
		{"on upper face", nbody.System{Positions: []nbody.Vec3{{X: 1.0, Y: 0.5, Z: 0.5}}, Charges: []float64{1}}, nbody.ErrOutOfDomain},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sys.Validate(box)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestEntryPointsReject proves the validation actually guards the public
// entry points, not just the Validate method.
func TestEntryPointsReject(t *testing.T) {
	sys := nbody.NewUniformSystem(64, 7)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := &nbody.System{
		Positions: append([]nbody.Vec3{}, sys.Positions...),
		Charges:   append([]float64{}, sys.Charges...),
	}
	bad.Positions[17] = nbody.Vec3{X: math.NaN()}
	if _, err := a.Potentials(bad); !errors.Is(err, nbody.ErrInvalidSystem) {
		t.Errorf("Potentials(NaN) = %v, want ErrInvalidSystem", err)
	}
	bad.Positions[17] = nbody.Vec3{X: 1e6, Y: 0.5, Z: 0.5}
	if _, _, err := a.Accelerations(bad); !errors.Is(err, nbody.ErrOutOfDomain) {
		t.Errorf("Accelerations(far) = %v, want ErrOutOfDomain", err)
	}

	d, err := nbody.NewDataParallel(8, box, nbody.Options{Depth: 3}, dpfmm.DirectUnaliased)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Potentials(bad); !errors.Is(err, nbody.ErrOutOfDomain) {
		t.Errorf("DataParallel.Potentials(far) = %v, want ErrOutOfDomain", err)
	}
}

// TestCoincidentParticles duplicates a block of positions exactly and
// checks that both the direct reference and Anderson return finite
// potentials and fields that agree — the coincident pair contributes
// nothing (self-exclusion semantics) instead of Inf or a panic.
func TestCoincidentParticles(t *testing.T) {
	sys := nbody.NewUniformSystem(512, 8)
	for i := 0; i < 64; i++ {
		sys.Positions[256+i] = sys.Positions[i]
	}
	box := sys.BoundingBox()

	want, err := nbody.Direct{}.Potentials(sys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("direct phi[%d] = %v with duplicated positions", i, v)
		}
	}
	acc := nbody.Direct{}.Accelerations(sys)
	for i, a := range acc {
		if math.IsNaN(a.X+a.Y+a.Z) || math.IsInf(a.X+a.Y+a.Z, 0) {
			t.Fatalf("direct acc[%d] = %v with duplicated positions", i, a)
		}
	}

	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := a.Potentials(sys)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckClose(t, "anderson duplicates vs direct", phi, want, boundFast)

	accBuf := make([]nbody.Vec3, sys.Len())
	if err := a.AccelerationsInto(phi, accBuf, sys); err != nil {
		t.Fatal(err)
	}
	for i, v := range accBuf {
		if math.IsNaN(v.X+v.Y+v.Z) || math.IsInf(v.X+v.Y+v.Z, 0) {
			t.Fatalf("anderson acc[%d] = %v with duplicated positions", i, v)
		}
	}

	// 2-D direct reference under the same degeneracy.
	pos2, q2 := random2D(128, 9)
	for i := 0; i < 16; i++ {
		pos2[64+i] = pos2[i]
	}
	for i, v := range nbody.DirectPotentials2D(pos2, q2) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("direct2d phi[%d] = %v with duplicated positions", i, v)
		}
	}
}

// TestConstructorErrors is the table-driven error-path sweep over every
// constructor: each invalid configuration must return an error (and a nil
// solver), never panic.
func TestConstructorErrors(t *testing.T) {
	box3 := nbody.Box{Center: nbody.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}
	box2 := nbody.Box2D{Center: nbody.Vec2{X: 0.5, Y: 0.5}, Side: 1}
	cases := []struct {
		name string
		make func() (any, error)
	}{
		{"core.NewSolver no degree", func() (any, error) {
			return core.NewSolver(box3, core.Config{Depth: 3})
		}},
		{"core.NewSolver depth 1", func() (any, error) {
			return core.NewSolver(box3, core.Config{Degree: 5, Depth: 1})
		}},
		{"core.NewSolver separation -1", func() (any, error) {
			return core.NewSolver(box3, core.Config{Degree: 5, Depth: 3, Separation: -1})
		}},
		{"core.NewSolver radius ratio 0.5", func() (any, error) {
			return core.NewSolver(box3, core.Config{Degree: 5, Depth: 3, RadiusRatio: 0.5})
		}},
		{"core.NewSolver M -1", func() (any, error) {
			return core.NewSolver(box3, core.Config{Degree: 5, Depth: 3, M: -1})
		}},
		{"core.NewSolver supernodes separation 1", func() (any, error) {
			return core.NewSolver(box3, core.Config{Degree: 5, Depth: 3, Separation: 1, Supernodes: true})
		}},
		{"NewAnderson depth 1", func() (any, error) {
			return nbody.NewAnderson(box3, nbody.Options{Depth: 1})
		}},
		{"NewAnderson bad radius ratio", func() (any, error) {
			return nbody.NewAnderson(box3, nbody.Options{Depth: 3, RadiusRatio: 0.1})
		}},
		{"NewAnderson2D K 2", func() (any, error) {
			return nbody.NewAnderson2D(box2, nbody.Options2D{K: 2, Depth: 3})
		}},
		{"NewAnderson2D depth 1", func() (any, error) {
			return nbody.NewAnderson2D(box2, nbody.Options2D{Depth: 1})
		}},
		{"NewAnderson2D M 9 K 16", func() (any, error) {
			return nbody.NewAnderson2D(box2, nbody.Options2D{K: 16, M: 9, Depth: 3})
		}},
		{"dp.NewMachine nodes 3", func() (any, error) {
			return dp.NewMachine(3, 4, dp.CostModel{})
		}},
		{"dp.NewMachine nodes 0", func() (any, error) {
			return dp.NewMachine(0, 4, dp.CostModel{})
		}},
		{"dp.NewMachine vus 3", func() (any, error) {
			return dp.NewMachine(8, 3, dp.CostModel{})
		}},
		{"NewDataParallel depth 0", func() (any, error) {
			return nbody.NewDataParallel(8, box3, nbody.Options{}, dpfmm.DirectUnaliased)
		}},
		{"NewDataParallel nodes 5", func() (any, error) {
			return nbody.NewDataParallel(5, box3, nbody.Options{Depth: 3}, dpfmm.DirectUnaliased)
		}},
		{"NewDataParallel supernodes", func() (any, error) {
			return nbody.NewDataParallel(8, box3, nbody.Options{Depth: 3, Supernodes: true}, dpfmm.DirectUnaliased)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := tc.make()
			if err == nil {
				t.Fatalf("constructor accepted invalid config (got %T)", v)
			}
		})
	}
}

// --- self-healing layer: retry supervisor, degradation ladder, breaker ---

// failingSolver is a stub ladder rung: it fails its first failN calls (every
// call when failN < 0) with a retryable *InternalError, then succeeds with
// zeros. It counts calls so tests can prove a rung was (or was not) probed.
type failingSolver struct {
	calls int
	failN int
}

func (f *failingSolver) Name() string { return "failing-stub" }

func (f *failingSolver) Potentials(s *nbody.System) ([]float64, error) {
	f.calls++
	if f.failN < 0 || f.calls <= f.failN {
		return nil, &nbody.InternalError{Phase: "stub", Value: "injected stub failure"}
	}
	return make([]float64, s.Len()), nil
}

// supervisorPolicy keeps retry tests fast: real backoff shape, tiny scale.
func supervisorPolicy() nbody.RetryPolicy {
	return nbody.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
	}
}

// TestResilientFaultMatrixAnderson drives every shared-memory fault site —
// including the two in-worker body sites — through the Resilient supervisor:
// the injected panic must be healed by a retry, the solve must complete, and
// the result must sit within the differential bound. Each site must record
// at least one retry and finish on rung 0 (no degradation: the ladder has
// one rung).
func TestResilientFaultMatrixAnderson(t *testing.T) {
	defer faults.Reset()
	sys := nbody.NewUniformSystem(2048, 21)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nbody.NewResilient(supervisorPolicy(), a)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(sys.Positions, sys.Charges)
	phi := make([]float64, sys.Len())

	sites := append([]string{}, core.FaultSites...)
	sites = append(sites, core.FaultSiteLeafOuterBody, core.FaultSiteNearBody)
	for _, site := range sites {
		before := recoveryOf(r)
		faults.InjectPanic(site, "injected: "+site)
		if err := r.PotentialsInto(phi, sys); err != nil {
			t.Fatalf("site %s: supervised solve failed: %v", site, err)
		}
		faults.Reset()
		testutil.CheckClose(t, "supervised "+site, phi, want, boundFast)
		rec := recoveryOf(r)
		if got := rec.Retries - before.Retries; got < 1 {
			t.Errorf("site %s: %d retries recorded, want >= 1", site, got)
		}
		if rec.Degradations != 0 {
			t.Errorf("site %s: %d degradations on a one-rung ladder", site, rec.Degradations)
		}
		if got := r.LastRung(); got != 0 {
			t.Errorf("site %s: finished on rung %d, want 0", site, got)
		}
	}
}

// recoveryOf reads r's own recovery counters in the wire shape.
func recoveryOf(r *nbody.Resilient) (rec metrics.RecoveryStats) {
	rec.Retries, rec.BreakerTrips, rec.Degradations = r.Counters()
	return rec
}

// TestResilientFaultMatrixDataParallel is the same healing matrix on the
// simulated-machine pipeline, covering the ghost phase, with two injected
// failures per site so the supervisor needs two of its three attempts.
func TestResilientFaultMatrixDataParallel(t *testing.T) {
	defer faults.Reset()
	sys := nbody.NewUniformSystem(512, 22)
	box := sys.BoundingBox()
	d, err := nbody.NewDataParallel(8, box, nbody.Options{Depth: 3}, dpfmm.DirectUnaliased)
	if err != nil {
		t.Fatal(err)
	}
	r, err := nbody.NewResilient(supervisorPolicy(), d)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.PotentialsParallel(sys.Positions, sys.Charges)

	for _, site := range dpfmm.FaultSites {
		before := recoveryOf(r)
		faults.InjectPanicN(site, "injected: "+site, 2)
		phi, err := r.Potentials(sys)
		if err != nil {
			t.Fatalf("site %s: supervised solve failed: %v", site, err)
		}
		faults.Reset()
		testutil.CheckClose(t, "supervised "+site, phi, want, boundFast)
		if got := recoveryOf(r).Retries - before.Retries; got < 2 {
			t.Errorf("site %s: %d retries recorded, want >= 2", site, got)
		}
	}
}

// TestSupervisorFaultMatrixAnderson2D closes the matrix over the third
// pipeline. The 2-D solver's signature does not fit the Solver interface,
// so it is driven through the resilience supervisor directly — which is
// also the documented extension point for custom backends.
func TestSupervisorFaultMatrixAnderson2D(t *testing.T) {
	defer faults.Reset()
	pos, q := random2D(1024, 23)
	box := nbody.Box2D{Center: nbody.Vec2{X: 0.5, Y: 0.5}, Side: 1.0000001}
	a, err := nbody.NewAnderson2D(box, nbody.Options2D{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	classify := func(err error) resilience.Class {
		var ie *nbody.InternalError
		if errors.As(err, &ie) {
			return resilience.Retryable
		}
		return resilience.Permanent
	}
	sup, err := resilience.New(resilience.Policy{
		MaxAttempts: 3,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		Classify:    classify,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := nbody.DirectPotentials2D(pos, q)

	for _, site := range core2.FaultSites {
		faults.InjectPanic(site, "injected: "+site)
		var phi []float64
		rung, err := sup.Do(context.Background(), func(ctx context.Context, _ int) error {
			var aerr error
			phi, aerr = a.Potentials(pos, q)
			return aerr
		})
		if err != nil {
			t.Fatalf("site %s: supervised solve failed: %v", site, err)
		}
		if rung != 0 {
			t.Fatalf("site %s: rung %d on a one-rung ladder", site, rung)
		}
		faults.Reset()
		testutil.CheckClose(t, "supervised "+site, phi, want, 1e-3)
	}
}

// TestResilientDegradation exhausts a permanently failing preferred rung and
// proves the ladder steps down to the healthy fallback: the solve succeeds,
// LastRung names the fallback, and the degradation is counted.
func TestResilientDegradation(t *testing.T) {
	sys := nbody.NewUniformSystem(1024, 24)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := &failingSolver{failN: -1}
	r, err := nbody.NewResilient(supervisorPolicy(), bad, a)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := r.Potentials(sys)
	if err != nil {
		t.Fatalf("ladder with healthy fallback failed: %v", err)
	}
	want := direct.PotentialsParallel(sys.Positions, sys.Charges)
	testutil.CheckClose(t, "degraded solve", phi, want, boundFast)
	if got := r.LastRung(); got != 1 {
		t.Errorf("LastRung = %d, want 1 (the fallback)", got)
	}
	if bad.calls != 3 {
		t.Errorf("failing rung probed %d times, want MaxAttempts = 3", bad.calls)
	}
	rec := recoveryOf(r)
	if rec.Degradations != 1 {
		t.Errorf("degradations = %d, want 1", rec.Degradations)
	}
	if rec.Retries != 2 {
		t.Errorf("retries = %d, want 2 (attempts 2 and 3 on the failing rung)", rec.Retries)
	}
}

// TestResilientBreakerSkipsOpenRung trips the preferred rung's circuit
// breaker and proves the next solve does not probe the rung at all while the
// breaker cools down.
func TestResilientBreakerSkipsOpenRung(t *testing.T) {
	sys := nbody.NewUniformSystem(512, 25)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := &failingSolver{failN: -1}
	p := supervisorPolicy()
	p.MaxAttempts = 2
	p.BreakerThreshold = 2
	p.BreakerCooldown = time.Minute
	r, err := nbody.NewResilient(p, bad, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Potentials(sys); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if bad.calls != 2 {
		t.Fatalf("failing rung probed %d times before the trip, want 2", bad.calls)
	}
	if rec := recoveryOf(r); rec.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", rec.BreakerTrips)
	}

	// Second solve: the open breaker must reject rung 0 without an attempt.
	if _, err := r.Potentials(sys); err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if bad.calls != 2 {
		t.Errorf("open-breaker rung probed again (%d calls, want still 2)", bad.calls)
	}
	if got := r.LastRung(); got != 1 {
		t.Errorf("LastRung = %d, want 1", got)
	}
}

// TestResilientHappyPathNoNewAllocs pins the zero-overhead claim: a solve
// through the supervisor allocates exactly as much as the bare solver's
// allocation-free path (nothing), records no recovery events, and stays on
// rung 0.
func TestResilientHappyPathNoNewAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are noise under the race detector")
	}
	sys := nbody.NewUniformSystem(2048, 26)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nbody.NewResilient(supervisorPolicy(), a)
	if err != nil {
		t.Fatal(err)
	}
	phi := make([]float64, sys.Len())
	acc := make([]nbody.Vec3, sys.Len())
	for _, op := range []struct {
		name       string
		bare, supd func() error
	}{
		{"PotentialsInto",
			func() error { return a.PotentialsInto(phi, sys) },
			func() error { return r.PotentialsInto(phi, sys) }},
		{"AccelerationsInto",
			func() error { return a.AccelerationsInto(phi, acc, sys) },
			func() error { return r.AccelerationsInto(phi, acc, sys) }},
	} {
		if err := op.supd(); err != nil { // warm the solver buffers
			t.Fatal(err)
		}
		base := testing.AllocsPerRun(10, func() {
			if err := op.bare(); err != nil {
				t.Fatal(err)
			}
		})
		supervised := testing.AllocsPerRun(10, func() {
			if err := op.supd(); err != nil {
				t.Fatal(err)
			}
		})
		if supervised > base {
			t.Errorf("%s: supervised solve allocates %.0f/op, bare solver %.0f/op: the happy path must add nothing", op.name, supervised, base)
		}
	}
	if rec := recoveryOf(r); !rec.Zero() {
		t.Errorf("happy path recorded recovery events: %+v", rec)
	}
	if got := r.LastRung(); got != 0 {
		t.Errorf("LastRung = %d, want 0", got)
	}
}

// TestResilientCancelDuringBackoffPrompt is the promptness acceptance test
// at the public API: with a ten-second backoff pending, cancelling the
// caller's context must return within milliseconds, not after the sleep.
func TestResilientCancelDuringBackoffPrompt(t *testing.T) {
	sys := nbody.NewUniformSystem(64, 27)
	bad := &failingSolver{failN: -1}
	r, err := nbody.NewResilient(nbody.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 10 * time.Second,
		MaxBackoff:  10 * time.Second,
	}, bad)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = r.PotentialsCtx(ctx, sys)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancellation during backoff took %v, want prompt return", elapsed)
	}
	t.Logf("cancelled a 10s backoff in %v", elapsed)
}

// TestResilientPermanentAbortsWholeLadder feeds a malformed system through a
// two-rung ladder: validation errors must abort immediately — no retries, no
// probe of the fallback rung, the sentinel preserved for errors.Is.
func TestResilientPermanentAbortsWholeLadder(t *testing.T) {
	sys := nbody.NewUniformSystem(64, 28)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	fallback := &failingSolver{failN: 0}
	r, err := nbody.NewResilient(supervisorPolicy(), a, fallback)
	if err != nil {
		t.Fatal(err)
	}
	bad := &nbody.System{
		Positions: append([]nbody.Vec3{}, sys.Positions...),
		Charges:   append([]float64{}, sys.Charges...),
	}
	bad.Positions[5] = nbody.Vec3{X: math.NaN()}
	if _, err := r.Potentials(bad); !errors.Is(err, nbody.ErrInvalidSystem) {
		t.Fatalf("got %v, want ErrInvalidSystem", err)
	}
	if fallback.calls != 0 {
		t.Errorf("fallback probed %d times on a permanent error, want 0", fallback.calls)
	}
	if rec := recoveryOf(r); rec.Retries != 0 {
		t.Errorf("retries = %d on a permanent error, want 0", rec.Retries)
	}
}

// TestResilientSkipsIncapableRung asks a ladder whose preferred rung cannot
// compute accelerations (Barnes-Hut is potentials-only) for accelerations:
// the rung must be skipped without burning retry attempts, and the capable
// fallback must serve the request.
func TestResilientSkipsIncapableRung(t *testing.T) {
	sys := nbody.NewUniformSystem(512, 29)
	box := sys.BoundingBox()
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nbody.NewResilient(supervisorPolicy(), nbody.NewBarnesHut(box, 0.4), a)
	if err != nil {
		t.Fatal(err)
	}
	phi, acc, err := r.Accelerations(sys)
	if err != nil {
		t.Fatalf("Accelerations through a potentials-only rung: %v", err)
	}
	if len(phi) != sys.Len() || len(acc) != sys.Len() {
		t.Fatalf("result lengths (%d, %d), want (%d, %d)", len(phi), len(acc), sys.Len(), sys.Len())
	}
	if got := r.LastRung(); got != 1 {
		t.Errorf("LastRung = %d, want 1", got)
	}
	if rec := recoveryOf(r); rec.Retries != 0 {
		t.Errorf("retries = %d for a capability skip, want 0", rec.Retries)
	}
	// Potentials must still prefer the Barnes-Hut rung.
	if _, err := r.Potentials(sys); err != nil {
		t.Fatal(err)
	}
	if got := r.LastRung(); got != 0 {
		t.Errorf("Potentials LastRung = %d, want 0", got)
	}
}

// TestResilientDirectRungServesForces heals a force solve on a direct rung:
// with every T2 phase of the Anderson rung panicking and one attempt per
// rung, the field comes from the direct fallback, bit for bit what direct
// summation gives.
func TestResilientDirectRungServesForces(t *testing.T) {
	defer faults.Reset()
	sys := nbody.NewUniformSystem(512, 30)
	a, err := nbody.NewAnderson(sys.BoundingBox(), nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nbody.NewResilient(nbody.RetryPolicy{MaxAttempts: 1}, a, nbody.NewDirect())
	if err != nil {
		t.Fatal(err)
	}
	faults.InjectPanicEvery(core.FaultSiteT2, "injected: every T2")
	phi, acc := make([]float64, sys.Len()), make([]nbody.Vec3, sys.Len())
	if err := r.AccelerationsInto(phi, acc, sys); err != nil {
		t.Fatalf("force solve over [anderson, direct]: %v", err)
	}
	if got := r.LastRung(); got != 1 {
		t.Errorf("LastRung = %d, want 1 (direct)", got)
	}
	wantPhi := direct.PotentialsParallel(sys.Positions, sys.Charges)
	wantAcc := direct.Accelerations(sys.Positions, sys.Charges)
	for i := range phi {
		if phi[i] != wantPhi[i] || acc[i] != wantAcc[i] {
			t.Fatalf("particle %d: (%v, %v), direct summation gives (%v, %v)", i, phi[i], acc[i], wantPhi[i], wantAcc[i])
		}
	}
}

// TestResilientDataParallelCancel cancels a data-parallel solve through the
// ladder once its first phase has run: potential and force solves alike
// must stop there with context.Canceled.
func TestResilientDataParallelCancel(t *testing.T) {
	sys := nbody.NewUniformSystem(512, 31)
	d, err := nbody.NewDataParallel(8, sys.BoundingBox(), nbody.Options{Depth: 3}, dpfmm.LinearizedAliased)
	if err != nil {
		t.Fatal(err)
	}
	r, err := nbody.NewResilient(supervisorPolicy(), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		solve func(ctx context.Context) error
	}{
		{"potentials", func(ctx context.Context) error { _, err := r.PotentialsCtx(ctx, sys); return err }},
		{"accelerations", func(ctx context.Context) error { _, _, err := r.AccelerationsCtx(ctx, sys); return err }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var phases int
		pipeline.SetObserver(func(ev pipeline.Event) {
			if !ev.Nested {
				phases++
			}
			cancel()
		})
		err := tc.solve(ctx)
		pipeline.SetObserver(nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v after %d phases, want context.Canceled", tc.name, err, phases)
		}
		if phases != 1 {
			t.Errorf("%s: %d phases ran, want 1", tc.name, phases)
		}
	}
}
