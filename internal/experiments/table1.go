package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nbody/internal/bh"
	"nbody/internal/core"
	"nbody/internal/direct"
	"nbody/internal/dpfmm"
	"nbody/internal/geom"
	"nbody/internal/metrics"
)

// Table1Config sizes the Table 1 experiment. The defaults are laptop-scale;
// the paper's configuration (100M particles, 256 nodes, depth 7-8) is
// reached by scaling N, Nodes and Depth together — the per-particle metrics
// are depth- and size-normalized, which is the point of the table.
type Table1Config struct {
	N     int // particles (default 16384)
	Nodes int // simulated nodes (default 16)
	Depth int // hierarchy depth (default 4)
}

func (c Table1Config) normalize() Table1Config {
	if c.N == 0 {
		c.N = 16384
	}
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
	return c
}

// Table1Row is one implementation's measured row.
type Table1Row struct {
	Method           string
	Report           metrics.Report
	Wall             time.Duration
	FlopsPerParticle float64
}

// Table1Result reproduces the comparison table.
type Table1Result struct {
	Cfg  Table1Config
	Rows []Table1Row
}

// Table1 runs Anderson's method at the paper's two accuracy settings on the
// simulated machine and the Barnes-Hut / direct baselines on the host, and
// assembles the efficiency / cycles-per-particle comparison.
func Table1(cfg Table1Config) (*Table1Result, error) {
	cfg = cfg.normalize()
	res := &Table1Result{Cfg: cfg}
	root := geom.Box3{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}
	rng := rand.New(rand.NewSource(1))
	pos := make([]geom.Vec3, cfg.N)
	q := make([]float64, cfg.N)
	for i := range pos {
		pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		q[i] = rng.Float64()
	}

	// Anderson on the simulated machine, low and high order (K = 12
	// matching the paper's D = 5; K = 72 via the product rule standing in
	// for the McLaren D = 14 rule; see DESIGN.md).
	// The high-order configuration runs one level shallower, mirroring the
	// paper's optimal depths (h=8 for K=12, h=7 for K=72): the costlier
	// translations favor more near-field work per box.
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"anderson D=5 K=12 (dp)", core.Config{Degree: 5, Depth: cfg.Depth}},
		{"anderson D=11 K=72 (dp)", core.Config{Degree: 11, Depth: cfg.Depth - 1}},
	} {
		m, s, err := newDP(cfg.Nodes, root, c.cfg, dpfmm.LinearizedAliased)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		rep := metrics.FromMachine(c.name, m, m.Counters(), cfg.N)
		res.Rows = append(res.Rows, Table1Row{
			Method: c.name, Report: rep, Wall: wall,
			FlopsPerParticle: float64(rep.Flops) / float64(cfg.N),
		})
	}

	// Barnes-Hut baseline (host): flops per particle for context.
	tr, err := bh.Build(root, pos, q, bh.Config{})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, st := tr.Potentials(bh.Config{Theta: 0.6, Quadrupole: true})
	res.Rows = append(res.Rows, Table1Row{
		Method:           "barnes-hut theta=0.6 (host)",
		Wall:             time.Since(start),
		FlopsPerParticle: float64(st.TotalFlops()) / float64(cfg.N),
	})

	// Direct baseline: exact flops per particle, no tree.
	start = time.Now()
	direct.PotentialsParallel(pos, q)
	res.Rows = append(res.Rows, Table1Row{
		Method:           "direct O(N^2) (host)",
		Wall:             time.Since(start),
		FlopsPerParticle: float64(cfg.N-1) * direct.FlopsPerPair,
	})
	return res, nil
}

// String prints the table with the paper's reference band.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d nodes=%d depth=%d (paper: N=100M, 256 nodes, depth 7-8)\n",
		r.Cfg.N, r.Cfg.Nodes, r.Cfg.Depth)
	fmt.Fprintf(&b, "%-30s %9s %16s %10s %14s %12s\n",
		"method", "eff", "cycles/particle", "comm", "flops/particle", "host wall")
	for _, row := range r.Rows {
		if row.Report.Nodes > 0 {
			fmt.Fprintf(&b, "%-30s %8.1f%% %16.0f %9.1f%% %14.0f %12v\n",
				row.Method, 100*row.Report.Efficiency(), row.Report.CyclesPerParticle(),
				100*row.Report.CommFraction(), row.FlopsPerParticle, row.Wall.Round(time.Millisecond))
		} else {
			fmt.Fprintf(&b, "%-30s %9s %16s %10s %14.0f %12v\n",
				row.Method, "-", "-", "-", row.FlopsPerParticle, row.Wall.Round(time.Millisecond))
		}
	}
	b.WriteString("paper (this-work rows): D=5: eff 27%, 37K cycles/particle; D=14: eff 35%, 183K cycles/particle\n")
	b.WriteString("paper (baselines): BH quadrupole 26-30% eff, 97K-266K cycles/particle on 1996 machines\n")
	return section("Table 1: efficiency and cycles per particle", b.String())
}
