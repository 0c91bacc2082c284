package experiments

import (
	"fmt"
	"math/rand"

	"nbody/internal/core"
	"nbody/internal/dpfmm"
	"nbody/internal/geom"
)

// LoadBalanceClaim measures the compute-cycle imbalance of the non-adaptive
// method (Section 3.5: the hierarchy is balanced, so uniform distributions
// load-balance by construction — and clustered ones do not, which is why
// the adaptive variants of Table 1 exist).
type LoadBalanceClaim struct {
	Rows []LoadBalanceRow
}

// LoadBalanceRow is one distribution's imbalance.
type LoadBalanceRow struct {
	Distribution string
	MaxOverMean  float64 // critical-path compute cycles / mean over VUs
}

// ClaimLoadBalance runs the same solve over uniform and clustered particles
// and compares the per-VU compute-cycle spread.
func ClaimLoadBalance(n int) (*LoadBalanceClaim, error) {
	if n == 0 {
		n = 8192
	}
	root := geom.Box3{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}
	res := &LoadBalanceClaim{}
	for _, dist := range []string{"uniform", "clustered"} {
		rng := rand.New(rand.NewSource(19))
		pos := make([]geom.Vec3, n)
		q := make([]float64, n)
		for i := range pos {
			switch dist {
			case "uniform":
				pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			default:
				// An eighth of the domain holds seven eighths of the mass.
				if i%8 != 0 {
					pos[i] = geom.Vec3{
						X: 0.5 * rng.Float64(),
						Y: 0.5 * rng.Float64(),
						Z: 0.5 * rng.Float64(),
					}
				} else {
					pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
				}
			}
			q[i] = 1
		}
		m, s, err := newDP(8, root, core.Config{Degree: 5, Depth: 4}, dpfmm.LinearizedAliased)
		if err != nil {
			return nil, err
		}
		if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
			return nil, err
		}
		maxC, meanC := m.MaxComputeCycles()
		res.Rows = append(res.Rows, LoadBalanceRow{
			Distribution: dist,
			MaxOverMean:  maxC / meanC,
		})
	}
	return res, nil
}

// String prints the claim check.
func (r *LoadBalanceClaim) String() string {
	out := ""
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-10s max/mean compute cycles over VUs: %.2f\n",
			row.Distribution, row.MaxOverMean)
	}
	out += "paper (Section 3.5): the non-adaptive hierarchy load-balances uniform\n"
	out += "distributions by construction; clustering concentrates near-field work\n"
	return section("Claim: load balance of the non-adaptive method", out)
}
