package dpfmm

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nbody/internal/core"
	"nbody/internal/geom"
	"nbody/internal/simd"
)

// machineCharges is what one solve charges the simulated machine: the
// counters behind every modeled number of Tables 1, 3 and 4.
type machineCharges struct {
	CShifts, OffVUWords, LocalWords int64
	SendCalls, SendWords, SendLocal int64
	BcastCalls, BcastWords, Flops   int64
	CommCycles, CopyCycles          float64
	MaxCompute, MeanCompute         float64 // per-VU compute cycles
}

// potentialCharges pins a potential solve's machine charges for one fixed
// system in every ghost strategy, with and without multigrid storage. The
// values were recorded before the force solve joined the potential
// pipeline; a change to the near-field walk, the data motion or the
// accounting shows here as a diff of counters, not of modeled seconds.
var potentialCharges = map[string]machineCharges{
	"direct-unaliased":               {CShifts: 7083, OffVUWords: 17253376, LocalWords: 7091712, SendCalls: 2, SendWords: 3376, SendLocal: 3024, Flops: 40679046, CommCycles: 3.2074892e+07, CopyCycles: 888815, MaxCompute: 4.312312380951776e+06, MeanCompute: 3.813265595237661e+06},
	"direct-unaliased/multigrid":     {CShifts: 7083, OffVUWords: 17253376, LocalWords: 7094784, SendCalls: 2, SendWords: 3376, SendLocal: 3024, Flops: 40679046, CommCycles: 3.2074892e+07, CopyCycles: 889199, MaxCompute: 4.312312380951776e+06, MeanCompute: 3.813265595237661e+06},
	"linearized-unaliased":           {CShifts: 3113, OffVUWords: 2950144, LocalWords: 7681536, SendCalls: 2, SendWords: 3376, SendLocal: 3024, Flops: 40679046, CommCycles: 1.1225372e+07, CopyCycles: 962543, MaxCompute: 4.312312380951776e+06, MeanCompute: 3.813265595237661e+06},
	"linearized-unaliased/multigrid": {CShifts: 3113, OffVUWords: 2950144, LocalWords: 7684608, SendCalls: 2, SendWords: 3376, SendLocal: 3024, Flops: 40679046, CommCycles: 1.1225372e+07, CopyCycles: 962927, MaxCompute: 4.312312380951776e+06, MeanCompute: 3.813265595237661e+06},
	"direct-aliased":                 {CShifts: 531, OffVUWords: 430336, LocalWords: 996096, SendCalls: 2, SendWords: 3376, SendLocal: 3024, Flops: 40679046, CommCycles: 1.904492e+06, CopyCycles: 126863, MaxCompute: 4.312312380952383e+06, MeanCompute: 3.8132655952380965e+06},
	"direct-aliased/multigrid":       {CShifts: 531, OffVUWords: 430336, LocalWords: 999168, SendCalls: 2, SendWords: 3376, SendLocal: 3024, Flops: 40679046, CommCycles: 1.904492e+06, CopyCycles: 127247, MaxCompute: 4.312312380952383e+06, MeanCompute: 3.8132655952380965e+06},
	"linearized-aliased":             {CShifts: 435, OffVUWords: 430336, LocalWords: 996096, SendCalls: 2, SendWords: 3376, SendLocal: 3024, Flops: 40679046, CommCycles: 1.616492e+06, CopyCycles: 126863, MaxCompute: 4.312312380952383e+06, MeanCompute: 3.8132655952380965e+06},
	"linearized-aliased/multigrid":   {CShifts: 435, OffVUWords: 430336, LocalWords: 999168, SendCalls: 2, SendWords: 3376, SendLocal: 3024, Flops: 40679046, CommCycles: 1.616492e+06, CopyCycles: 127247, MaxCompute: 4.312312380952383e+06, MeanCompute: 3.8132655952380965e+06},
}

func TestPotentialMachineChargesGolden(t *testing.T) {
	pos, q := uniformParticles(rand.New(rand.NewSource(90)), 800)
	for _, strat := range []GhostStrategy{DirectUnaliased, LinearizedUnaliased, DirectAliased, LinearizedAliased} {
		for _, mg := range []bool{false, true} {
			name := strat.String()
			if mg {
				name += "/multigrid"
			}
			t.Run(name, func(t *testing.T) {
				m := newTestMachine(t, 4)
				s, err := NewSolver(m, unitBox(), core.Config{Degree: 5, Depth: 3}, strat)
				if err != nil {
					t.Fatal(err)
				}
				s.MultigridStorage = mg
				if _, err := potentials(s, pos, q); err != nil {
					t.Fatal(err)
				}
				c := m.Counters()
				maxC, meanC := m.MaxComputeCycles()
				got := machineCharges{c.CShifts, c.OffVUWords, c.LocalWords,
					c.SendCalls, c.SendWords, c.SendLocal, c.BcastCalls, c.BcastWords, c.Flops,
					c.CommCycles(), c.CopyCycles(), maxC, meanC}
				if want := potentialCharges[name]; got != want {
					t.Errorf("machine charges moved:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// solveHash hashes the bits of a solve's results (acc may be nil), in
// core's solveHash format.
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

// solvePins are the bits of potential and force solves at degree 5 and 9,
// per backend. avx512 carries no entry: its near-field seed is the CPU's
// VRSQRT14PD, pinned per kernel by the order tests instead.
var solvePins = map[string][]string{
	simd.Scalar: {"d5-potential-hash=c71e2a77aed3c6e4", "d5-force-hash=346fb03a97609e98",
		"d9-potential-hash=54611f7a43bec8c5", "d9-force-hash=56cfc9c312853ae3"},
	simd.AVX2: {"d5-potential-hash=26c995cbef9a4b17", "d5-force-hash=af3c5c33fae86a50",
		"d9-potential-hash=25a2bf90833ada15", "d9-force-hash=91219dbe44877a39"},
}

// TestSolveBitsPinned holds the data-parallel solver's output bits: a
// change that means to keep them (a refactor of a leaf kernel, the walk, the
// storage) must leave these hashes alone on every pinned backend.
func TestSolveBitsPinned(t *testing.T) {
	pos, q := uniformParticles(rand.New(rand.NewSource(90)), 800)
	var got []string
	for _, degree := range []int{5, 9} {
		s, err := NewSolver(newTestMachine(t, 4), unitBox(), core.Config{Degree: degree, Depth: 3}, DirectAliased)
		if err != nil {
			t.Fatal(err)
		}
		phi, err := potentials(s, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		fphi, acc, err := accelerations(s, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got,
			fmt.Sprintf("d%d-potential-hash=%016x", degree, solveHash(phi, nil)),
			fmt.Sprintf("d%d-force-hash=%016x", degree, solveHash(fphi, acc)))
	}
	t.Logf("%s: %v", simd.Active(), got)
	if pin, ok := solvePins[simd.Active()]; ok && runtime.GOARCH == "amd64" && !slices.Equal(got, pin) {
		t.Errorf("backend %s: %v, pinned %v", simd.Active(), got, pin)
	}
}
