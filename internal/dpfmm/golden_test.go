package dpfmm

import (
	"math/rand"
	"testing"

	"nbody/internal/core"
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
