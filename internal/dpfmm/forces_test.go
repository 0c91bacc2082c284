package dpfmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nbody/internal/core"
	"nbody/internal/direct"
	"nbody/internal/geom"
)

func TestDataParallelAccelerations(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	pos, q := uniformParticles(rng, 900)
	m := newTestMachine(t, 4)
	s, err := NewSolver(m, unitBox(), core.Config{Degree: 9, Depth: 3}, DirectAliased)
	if err != nil {
		t.Fatal(err)
	}
	phi, acc, err := accelerations(s, pos, q)
	if err != nil {
		t.Fatal(err)
	}

	wantPhi := direct.PotentialsParallel(pos, q)
	var rms, mean float64
	for i := range phi {
		d := phi[i] - wantPhi[i]
		rms += d * d
		mean += math.Abs(wantPhi[i])
	}
	rms = math.Sqrt(rms / float64(len(phi)))
	mean /= float64(len(phi))
	if rms/mean > 1e-4 {
		t.Errorf("potential error %.2e", rms/mean)
	}

	wantAcc := direct.Accelerations(pos, q)
	var arms, amean float64
	for i := range acc {
		arms += acc[i].Sub(wantAcc[i]).Norm2()
		amean += wantAcc[i].Norm()
	}
	arms = math.Sqrt(arms / float64(len(acc)))
	amean /= float64(len(acc))
	if arms/amean > 2e-3 {
		t.Errorf("acceleration error %.2e relative to mean", arms/amean)
	}
}

// TestDataParallelAccelerationsMatchSharedMemory holds the force solve to
// the shared-memory solver's fields in every ghost strategy, with and
// without multigrid storage: one pipeline, so every configuration of the
// potential solve is one of the force solve too.
func TestDataParallelAccelerationsMatchSharedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	pos, q := uniformParticles(rng, 600)
	cfg := core.Config{Degree: 5, Depth: 3}

	ref, err := core.NewSolver(unitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, wantAcc, err := accelerations(ref, pos, q)
	if err != nil {
		t.Fatal(err)
	}

	for _, strat := range []GhostStrategy{DirectUnaliased, LinearizedUnaliased, DirectAliased, LinearizedAliased} {
		for _, mg := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/multigrid=%v", strat, mg), func(t *testing.T) {
				s, err := NewSolver(newTestMachine(t, 2), unitBox(), cfg, strat)
				if err != nil {
					t.Fatal(err)
				}
				s.MultigridStorage = mg
				_, acc, err := accelerations(s, pos, q)
				if err != nil {
					t.Fatal(err)
				}
				for i := range acc {
					if acc[i].Sub(wantAcc[i]).Norm() > 1e-9*(1+wantAcc[i].Norm()) {
						t.Fatalf("acceleration mismatch at %d: %v vs %v", i, acc[i], wantAcc[i])
					}
				}
			})
		}
	}
}

func TestAccelerationsRejectBadInput(t *testing.T) {
	m := newTestMachine(t, 2)
	s, err := NewSolver(m, unitBox(), core.Config{Degree: 5, Depth: 2}, DirectAliased)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := accelerations(s, make([]geom.Vec3, 2), make([]float64, 1)); err == nil {
		t.Error("mismatched input accepted")
	}
}

// TestForceEvalLocalAllocsFlat: the leaf evaluation of a force solve runs
// the kernel on the particle planes in place, so what it allocates (the
// machine's per-VU region, nothing per particle) does not grow with the
// particle count. The slack of two is the scheduler's: its region
// descriptors are recycled, so a run may allocate one or two more.
func TestForceEvalLocalAllocsFlat(t *testing.T) {
	var allocs []float64
	for _, n := range []int{400, 3200} {
		pos, q := uniformParticles(rand.New(rand.NewSource(113)), n)
		s, err := NewSolver(newTestMachine(t, 4), unitBox(), core.Config{Degree: 5, Depth: 3}, DirectAliased)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := s.partitionParticles(pos, q, true)
		if err != nil {
			t.Fatal(err)
		}
		loc := s.M.NewGrid3(s.Hier.GridSize(s.Cfg.Depth), s.TS.K)
		allocs = append(allocs, testing.AllocsPerRun(10, func() { s.evalLocal(pg, loc) }))
	}
	t.Logf("allocs per force evalLocal at N = 400, 3200: %v", allocs)
	if allocs[1] > allocs[0]+2 {
		t.Errorf("force evalLocal allocates %v at N = 400 and %v at N = 3200: it grows with the particles", allocs[0], allocs[1])
	}
}
