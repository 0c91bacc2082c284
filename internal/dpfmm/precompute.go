package dpfmm

import (
	"time"

	"nbody/internal/blas"
	"nbody/internal/core"
	"nbody/internal/dp"
	"nbody/internal/sched"
	"nbody/internal/tree"
)

// PrecomputeStrategy selects the redundant-computation / communication
// trade-off for building the translation matrices (Section 3.3.4, Figures
// 8 and 9).
type PrecomputeStrategy int

// The strategies.
const (
	// ComputeEverywhere: every VU computes every matrix; embarrassingly
	// parallel, no communication, maximal redundant work.
	ComputeEverywhere PrecomputeStrategy = iota
	// ComputeAndReplicate: each matrix is computed once (different VUs
	// computing different matrices) and broadcast to all VUs.
	ComputeAndReplicate
	// ComputeAndReplicateGrouped: VUs are partitioned into groups as large
	// as the matrix count; each group computes the full collection and
	// replicates within the group only.
	ComputeAndReplicateGrouped
)

// String implements fmt.Stringer.
func (s PrecomputeStrategy) String() string {
	switch s {
	case ComputeEverywhere:
		return "compute-everywhere"
	case ComputeAndReplicate:
		return "compute+replicate"
	case ComputeAndReplicateGrouped:
		return "compute+replicate-grouped"
	default:
		return "unknown"
	}
}

// PrecomputeResult reports both the modeled machine cycles and the measured
// host wall time of one precomputation experiment.
type PrecomputeResult struct {
	Strategy      PrecomputeStrategy
	Matrices      int
	K             int
	ComputeCycles float64 // critical-path modeled compute cycles
	CommCycles    float64 // modeled replication cycles
	Wall          time.Duration
}

// TotalCycles returns the modeled total.
func (r PrecomputeResult) TotalCycles() float64 { return r.ComputeCycles + r.CommCycles }

// PrecomputeParentChild runs the T1/T3 precomputation experiment of Figure
// 8: 16 K x K matrices (8 per operator).
func PrecomputeParentChild(m *dp.Machine, cfg core.Config, strat PrecomputeStrategy) (PrecomputeResult, error) {
	ncfg, err := cfg.Normalized()
	if err != nil {
		return PrecomputeResult{}, err
	}
	return precompute(m, ncfg, strat, 16, 16), nil
}

// PrecomputeInteractive runs the T2 precomputation experiment of Figure 9:
// the full cube of matrices (1331 for two-separation).
func PrecomputeInteractive(m *dp.Machine, cfg core.Config, strat PrecomputeStrategy) (PrecomputeResult, error) {
	ncfg, err := cfg.Normalized()
	if err != nil {
		return PrecomputeResult{}, err
	}
	b := tree.InteractiveOffsetBound(ncfg.Separation)
	side := 2*b + 1
	return precompute(m, ncfg, strat, side*side*side, side*side*side), nil
}

// precompute models and measures building nmat matrices of shape K x K
// under a strategy. groupMax bounds the group size for the grouped
// strategy (the natural group is one VU per matrix).
func precompute(m *dp.Machine, cfg core.Config, strat PrecomputeStrategy, nmat, groupMax int) PrecomputeResult {
	k := cfg.Rule.K()
	perMatrix := core.TranslationMatrixFlops(k, cfg.M)
	words := int64(k) * int64(k)
	eff := m.Cost.KernelEfficiency
	nvu := m.NumVUs()

	res := PrecomputeResult{Strategy: strat, Matrices: nmat, K: k}
	start := time.Now()
	switch strat {
	case ComputeEverywhere:
		// Measure one VU's real work (all matrices once); every VU does
		// the same, so the critical path equals one full build.
		buildMatrices(cfg, nmat)
		res.ComputeCycles = float64(nmat) * float64(perMatrix) / (m.Cost.FlopsPerCycle * eff)
	case ComputeAndReplicate:
		perVU := (nmat + nvu - 1) / nvu
		buildMatrices(cfg, perVU)
		res.ComputeCycles = float64(perVU) * float64(perMatrix) / (m.Cost.FlopsPerCycle * eff)
		before := m.Counters()
		for i := 0; i < nmat; i++ {
			m.Broadcast(words, 0)
		}
		res.CommCycles = m.Counters().Sub(before).CommCycles()
	case ComputeAndReplicateGrouped:
		group := nmat
		if group > groupMax {
			group = groupMax
		}
		if group > nvu {
			group = nvu
		}
		perVU := (nmat + group - 1) / group
		buildMatrices(cfg, perVU)
		res.ComputeCycles = float64(perVU) * float64(perMatrix) / (m.Cost.FlopsPerCycle * eff)
		before := m.Counters()
		for i := 0; i < nmat; i++ {
			m.Broadcast(words, group)
		}
		res.CommCycles = m.Counters().Sub(before).CommCycles()
	}
	res.Wall = time.Since(start)
	return res
}

// buildMatrices actually constructs n representative translation matrices
// so the measured wall time reflects real kernel work; the host cores play
// the role of the VUs computing in parallel.
func buildMatrices(cfg core.Config, n int) {
	if n <= 0 {
		return
	}
	sink := make([]blas.Matrix, n)
	sched.Run(n, func(i int) { sink[i] = core.BuildOneMatrix(cfg, i) })
}
