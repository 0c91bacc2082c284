package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"nbody/internal/core"
	"nbody/internal/direct"
	"nbody/internal/dpfmm"
	"nbody/internal/geom"
	"nbody/internal/metrics"
)

func unitBox() geom.Box3 {
	return geom.Box3{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}
}

func uniformSystem(n int, seed int64) ([]geom.Vec3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Vec3, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		q[i] = rng.Float64()
	}
	return pos, q
}

func meanRelError(got, want []float64) float64 {
	var rms, mean float64
	for i := range got {
		d := got[i] - want[i]
		rms += d * d
		mean += math.Abs(want[i])
	}
	return math.Sqrt(rms/float64(len(got))) / (mean / float64(len(got)))
}

// AccuracyClaim measures the error-relative-to-mean of the two headline
// configurations (abstract: "four and seven digits of accuracy").
type AccuracyClaim struct {
	N        int
	LowErr   float64 // D=5, K=12
	HighErr  float64 // degree-13 product rule (stand-in for D=14 K=72)
	LowWall  time.Duration
	HighWall time.Duration
}

// ClaimAccuracy runs both configurations against the direct sum.
func ClaimAccuracy(n int) (*AccuracyClaim, error) {
	if n == 0 {
		n = 2000
	}
	pos, q := uniformSystem(n, 3)
	want := direct.PotentialsParallel(pos, q)
	res := &AccuracyClaim{N: n}
	for _, c := range []struct {
		deg  int
		err  *float64
		wall *time.Duration
	}{
		{5, &res.LowErr, &res.LowWall},
		{13, &res.HighErr, &res.HighWall},
	} {
		s, err := core.NewSolver(unitBox(), core.Config{Degree: c.deg, Depth: 3})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		phi := make([]float64, len(pos))
		if err := s.Solve(nil, pos, q, phi, nil); err != nil {
			return nil, err
		}
		*c.wall = time.Since(start)
		*c.err = meanRelError(phi, want)
	}
	return res, nil
}

// String prints the claim check.
func (r *AccuracyClaim) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d, error relative to mean |phi| vs direct sum\n", r.N)
	fmt.Fprintf(&b, "D=5  (K=12):  %.2e  (%.1f digits)   paper: ~4 digits\n", r.LowErr, -math.Log10(r.LowErr))
	fmt.Fprintf(&b, "D=13 (K=98):  %.2e  (%.1f digits)   paper (D=14 K=72): ~7 digits\n", r.HighErr, -math.Log10(r.HighErr))
	return section("Claim: accuracy of the two headline configurations", b.String())
}

// ScalingPoint is one (N, nodes) configuration of the scaling claims.
type ScalingPoint struct {
	N      int
	Nodes  int
	Depth  int
	Report metrics.Report
	Wall   time.Duration
}

// ScalingResult collects scaling sweeps.
type ScalingResult struct {
	Title  string
	Points []ScalingPoint
	Note   string
}

// ClaimScalingN sweeps N (with depth at the optimal setting for each N) at
// fixed machine size: modeled cycles per particle should stay roughly
// constant ("the speed of the code scales linearly with ... the number of
// particles").
func ClaimScalingN(nodes int) (*ScalingResult, error) {
	if nodes == 0 {
		nodes = 16
	}
	res := &ScalingResult{
		Title: "linear scaling in N (fixed machine)",
		Note:  "paper: time linear in N at optimal depth",
	}
	for _, cfg := range []struct{ n, depth int }{
		{4096, 3}, {32768, 4}, {262144, 5},
	} {
		pos, q := uniformSystem(cfg.n, 11)
		m, s, err := newDP(nodes, unitBox(), core.Config{Degree: 5, Depth: cfg.depth}, dpfmm.LinearizedAliased)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ScalingPoint{
			N: cfg.n, Nodes: nodes, Depth: cfg.depth,
			Report: metrics.FromMachine("scaling", m, m.Counters(), cfg.n),
			Wall:   time.Since(start),
		})
	}
	return res, nil
}

// ClaimScalingP sweeps machine size at fixed N: modeled time should fall
// ~linearly with nodes.
func ClaimScalingP(n, depth int) (*ScalingResult, error) {
	if n == 0 {
		n = 32768
	}
	if depth == 0 {
		depth = 4
	}
	res := &ScalingResult{
		Title: "linear scaling in P (fixed problem)",
		Note:  "paper: speed scales linearly with the number of processors",
	}
	pos, q := uniformSystem(n, 12)
	for _, nodes := range []int{4, 16, 64} {
		m, s, err := newDP(nodes, unitBox(), core.Config{Degree: 5, Depth: depth}, dpfmm.LinearizedAliased)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ScalingPoint{
			N: n, Nodes: nodes, Depth: depth,
			Report: metrics.FromMachine("scaling", m, m.Counters(), n),
			Wall:   time.Since(start),
		})
	}
	return res, nil
}

// String prints a scaling sweep.
func (r *ScalingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %6s %6s %14s %16s %10s %10s\n",
		"N", "nodes", "depth", "model seconds", "cycles/particle", "eff", "comm")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %6d %6d %14.4f %16.0f %9.1f%% %9.1f%%\n",
			p.N, p.Nodes, p.Depth, p.Report.ModelSeconds(), p.Report.CyclesPerParticle(),
			100*p.Report.Efficiency(), 100*p.Report.CommFraction())
	}
	b.WriteString(r.Note + "\n")
	return section("Claim: "+r.Title, b.String())
}

// DepthPoint is one hierarchy depth of the optimal-depth sweep.
type DepthPoint struct {
	Depth     int
	Flops     int64
	Traversal int64
	Near      int64
	Wall      time.Duration
}

// DepthResult is the optimal-depth sweep (Section 2.3).
type DepthResult struct {
	N      int
	Points []DepthPoint
}

// ClaimOptimalDepth sweeps the hierarchy depth at fixed N, showing the
// traversal / near-field balance.
func ClaimOptimalDepth(n int) (*DepthResult, error) {
	if n == 0 {
		n = 32768
	}
	pos, q := uniformSystem(n, 13)
	res := &DepthResult{N: n}
	for _, depth := range []int{3, 4, 5} {
		s, err := core.NewSolver(unitBox(), core.Config{Degree: 5, Depth: depth})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
			return nil, err
		}
		st := s.Stats()
		res.Points = append(res.Points, DepthPoint{
			Depth:     depth,
			Flops:     st.TotalFlops(),
			Traversal: st.TraversalFlops(),
			Near:      st.Flops[core.PhaseNear],
			Wall:      time.Since(start),
		})
	}
	return res, nil
}

// String prints the sweep.
func (r *DepthResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d, K=12\n", r.N)
	fmt.Fprintf(&b, "%6s %14s %16s %14s %12s\n", "depth", "total flops", "traversal flops", "near flops", "host wall")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %14d %16d %14d %12v\n",
			p.Depth, p.Flops, p.Traversal, p.Near, p.Wall.Round(time.Millisecond))
	}
	b.WriteString("paper: optimal depth balances hierarchy traversal against near-field direct evaluation\n")
	return section("Claim: optimal hierarchy depth", b.String())
}

// AblationResult reports a design-choice ablation.
type AblationResult struct {
	Title string
	Lines []string
}

// String prints the ablation.
func (r *AblationResult) String() string {
	return section("Ablation: "+r.Title, strings.Join(r.Lines, "\n")+"\n")
}

// ClaimSupernodes measures the supernode optimization: translation count,
// flops, and accuracy cost (Section 2.3: 875 -> 189, "slightly decreased
// accuracy").
func ClaimSupernodes(n int) (*AblationResult, error) {
	if n == 0 {
		n = 8000
	}
	pos, q := uniformSystem(n, 14)
	want := direct.PotentialsParallel(pos, q)
	res := &AblationResult{Title: "supernodes (875 -> 189 interactive translations)"}
	for _, sup := range []bool{false, true} {
		s, err := core.NewSolver(unitBox(), core.Config{Degree: 7, Depth: 4, Supernodes: sup})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		phi := make([]float64, len(pos))
		if err := s.Solve(nil, pos, q, phi, nil); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		st := s.Stats()
		res.Lines = append(res.Lines, fmt.Sprintf(
			"supernodes=%-5v T2 translations=%-9d downward flops=%-12d err=%.2e wall=%v",
			sup, st.T2Count, st.Flops[core.PhaseT2]+st.Flops[core.PhaseT3], meanRelError(phi, want),
			wall.Round(time.Millisecond)))
	}
	res.Lines = append(res.Lines, "paper: ~4.6x fewer interactive-field translations, slightly decreased accuracy")
	return res, nil
}

// ClaimAggregation measures the BLAS-3 aggregation against per-box gemv
// (Section 3.3.3: 58 -> 87 Mflops/s/PN for K=12 parent-child translations).
func ClaimAggregation(n int) (*AblationResult, error) {
	if n == 0 {
		n = 32768
	}
	pos, q := uniformSystem(n, 15)
	res := &AblationResult{Title: "BLAS-3 aggregation of translations"}
	for _, disable := range []bool{true, false} {
		s, err := core.NewSolver(unitBox(), core.Config{Degree: 5, Depth: 4, DisableAggregation: disable})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		st := s.Stats()
		hier := st.TraversalTime()
		mflops := float64(st.TraversalFlops()) / hier.Seconds() / 1e6
		mode := "aggregated gemm"
		if disable {
			mode = "per-box gemv"
		}
		res.Lines = append(res.Lines, fmt.Sprintf(
			"%-16s traversal=%-12v sustained=%7.0f Mflops/s (host)  total wall=%v",
			mode, hier.Round(time.Millisecond), mflops, wall.Round(time.Millisecond)))
	}
	res.Lines = append(res.Lines, "paper: aggregation lifted T1/T3 from 58 to 87 Mflops/s/PN at K=12")
	return res, nil
}
