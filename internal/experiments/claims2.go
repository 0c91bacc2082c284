package experiments

import (
	"fmt"
	"math/rand"

	"nbody/internal/core"
	"nbody/internal/dpfmm"
	"nbody/internal/geom"
)

// MemoryClaim reports the translation-matrix storage of Section 3.3.4 (the
// paper: 1.53 MB for K = 12, 53.9 MB for K = 72) and the per-particle
// hierarchy storage that makes 100M-particle runs fit a 256-node machine.
type MemoryClaim struct {
	Rows []MemoryRow
}

// MemoryRow is one configuration's storage.
type MemoryRow struct {
	K                    int
	MatrixMB             float64 // all 1331 T2 matrices
	HierarchyWordsPerBox int
}

// ClaimMemory computes the matrix-store sizes for the paper's two K values.
func ClaimMemory() (*MemoryClaim, error) {
	res := &MemoryClaim{}
	for _, d := range []int{5, 11} {
		cfg, err := core.Config{Degree: d, Depth: 3}.Normalized()
		if err != nil {
			return nil, err
		}
		ts := core.NewTranslationSet(cfg)
		res.Rows = append(res.Rows, MemoryRow{
			K:        ts.K,
			MatrixMB: float64(ts.MatrixBytes()) / 1e6,
			// Far + local potentials, two layers each in the multigrid
			// embedding: 4K words per leaf box.
			HierarchyWordsPerBox: 4 * ts.K,
		})
	}
	return res, nil
}

// String prints the claim check.
func (r *MemoryClaim) String() string {
	out := fmt.Sprintf("%5s %16s %22s\n", "K", "T2 matrices (MB)", "hierarchy words/box")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%5d %16.2f %22d\n", row.K, row.MatrixMB, row.HierarchyWordsPerBox)
	}
	out += "paper: 1.53 MB at K=12 and 53.9 MB at K=72 per VU (hence matrices are\n"
	out += "computed in parallel and replicated on use rather than all stored)\n"
	return section("Claim: memory use of the translation-matrix store", out)
}

// ReshapeClaim reports the coordinate-sort locality of Section 3.2 for
// different particle distributions.
type ReshapeClaim struct {
	Rows []ReshapeRow
}

// ReshapeRow is one distribution's reshape locality.
type ReshapeRow struct {
	Distribution string
	LocalPct     float64
}

// ClaimReshape measures the fraction of particles left on their leaf box's
// VU by the coordinate sort, for a uniform and a clustered distribution.
func ClaimReshape(n int) (*ReshapeClaim, error) {
	if n == 0 {
		n = 8192
	}
	res := &ReshapeClaim{}
	root := geom.Box3{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 1}
	for _, dist := range []string{"uniform", "clustered"} {
		rng := rand.New(rand.NewSource(17))
		pos := make([]geom.Vec3, n)
		q := make([]float64, n)
		for i := range pos {
			switch dist {
			case "uniform":
				pos[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			default:
				pos[i] = geom.Vec3{
					X: 0.3 + 0.4*rng.Float64()*rng.Float64(),
					Y: 0.3 + 0.4*rng.Float64()*rng.Float64(),
					Z: 0.3 + 0.4*rng.Float64()*rng.Float64(),
				}
			}
			q[i] = 1
		}
		_, s, err := newDP(8, root, core.Config{Degree: 5, Depth: 4}, dpfmm.LinearizedAliased)
		if err != nil {
			return nil, err
		}
		if err := s.Solve(nil, pos, q, make([]float64, len(pos)), nil); err != nil {
			return nil, err
		}
		rs := s.ReshapeStats()
		total := rs.MovedOffVU + rs.Local
		res.Rows = append(res.Rows, ReshapeRow{
			Distribution: dist,
			LocalPct:     100 * float64(rs.Local) / float64(total),
		})
	}
	return res, nil
}

// String prints the claim check.
func (r *ReshapeClaim) String() string {
	out := ""
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-10s %5.1f%% of particles stay on their box's VU after the coordinate sort\n",
			row.Distribution, row.LocalPct)
	}
	out += "paper: with >= 1 box per VU the reshape needs no communication for uniform\n"
	out += "distributions, and 'most particles' stay local for near-uniform ones\n"
	return section("Claim: coordinate-sort reshape locality", out)
}
