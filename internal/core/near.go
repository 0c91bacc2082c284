package core

import (
	"nbody/internal/direct"
	"nbody/internal/kernels"
	"nbody/internal/pipeline"
	"nbody/internal/sched"
)

// NearFlopsPerPair is what the near field charges per particle pair: each
// pair is evaluated once (direct.FlopsPerPair, the literature's count for one
// interaction) and deposited on both sides, and the second deposit costs the
// extra multiply-add on the other particle's charge.
const NearFlopsPerPair = direct.FlopsPerPair + 2

// nearSplitPairs is the size, as the product of the two rows' occupancies,
// above which a row pair is split into tiles (nearSplit): a few milliseconds
// of kernel time, against the fraction of one that an extra barrier costs.
const nearSplitPairs = 1 << 20

// nearInlinePairs is the size, summed over a round's row pairs, up to which
// the round runs on the caller: a wake-up and a barrier would double its time.
const nearInlinePairs = 1 << 16

// nearRound is one barrier-separated round of the near-field sweep: each of
// rows (x-row indices z*n+y) is paired with the row off further on; off == 0
// is the own-row round.
type nearRound struct {
	off  int
	rows []int32
}

// nearJob pairs the particles [tLo, tHi) of x-row row with the particles
// [sLo, sHi) of x-row other: the whole of both rows, or a tile of them.
type nearJob struct {
	row, other         int
	tLo, tHi, sLo, sHi int
}

// buildNearRounds lists the rounds for an n^3 leaf grid and separation d:
// the own-row round, then for each of the 2d(d+1) row offsets (dy, dz) of
// the upper half plane (dz > 0, or dz == 0 and dy > 0) two rounds, by the
// parity of floor(z/dz) (of floor(y/dy) when dz == 0). A job writes its own
// row and the row one offset up, whose parity is the other one: no two jobs
// of a round touch a common row. Rounds left without a job by a small grid
// are dropped.
//
// A round lists its rows y-major, odd y and then even y, each ascending,
// with z ascending within each y. The pool claims jobs in list order, so
// neighbours in the list run together: listed z-major they would be rows y
// and y+1, whose mirror ranges share a cache line that the fused kernel
// rewrites once per target, and whose sweeps run into each other
// (nearSplit). Listed this way neighbours are a z-plane apart, or two y
// apart in different z-planes. Of the y orders tried, it slowed no round
// of the Plummer shape and sped up the most (EXPERIMENTS.md).
func buildNearRounds(n, d int) []nearRound {
	var ys []int
	for parity := 1; parity >= 0; parity-- {
		for y := parity; y < n; y += 2 {
			ys = append(ys, y)
		}
	}
	own := nearRound{}
	for _, y := range ys {
		for z := 0; z < n; z++ {
			own.rows = append(own.rows, int32(z*n+y))
		}
	}
	rounds := []nearRound{own}
	for dz := 0; dz <= d; dz++ {
		for dy := -d; dy <= d; dy++ {
			if dz == 0 && dy <= 0 {
				continue
			}
			for parity := 0; parity < 2; parity++ {
				r := nearRound{off: dz*n + dy}
				for _, y := range ys {
					if y < -dy || y >= n-dy {
						continue
					}
					for z := 0; z+dz < n; z++ {
						if (dz > 0 && z/dz%2 == parity) || (dz == 0 && y/dy%2 == parity) {
							r.rows = append(r.rows, int32(z*n+y))
						}
					}
				}
				if len(r.rows) > 0 {
					rounds = append(rounds, r)
				}
			}
		}
	}
	return rounds
}

// nearField is step 5: direct evaluation against the d-separation near
// field, every pair of particles once, deposited on both (Newton's third
// law: the paper's 124 -> 62 box-box interactions), for potential and force
// solves alike and at every worker count.
//
// The unit of work is an x-row of leaf boxes, the unit of exclusion a pair
// of rows: the sweep is the fixed list of rounds of buildNearRounds with a
// barrier after each, and within a round no two jobs touch a common row, so
// jobs write phi and the field in place with no colouring and no per-worker
// buffer. A particle receives its contributions in an order set by the
// round list, the occupancies (nearSplit) and nearRow's walk alone — not by
// which worker ran which job — so the result does not depend on the pool.
//
// Rows are coarse and uneven (a Plummer sphere puts most pairs in four of
// them), so jobs are claimed one at a time; a round of at most
// nearInlinePairs runs on the caller, in the same order.
func (s *Solver) nearField() {
	s.nearPairs.Store(0)
	for i := range s.nearRounds {
		first, second, work := s.nearSplit(&s.nearRounds[i])
		for _, jobs := range [][]nearJob{first, second} {
			s.nearCur = jobs
			// A canceled round evaluated only part of the near field: not counted.
			if sched.RunEachCtx(s.ctx, len(jobs), work <= nearInlinePairs, s.nearRun) != nil {
				return
			}
		}
	}
	pairs := s.nearPairs.Load()
	s.rec.AddNearPairs(pairs)
	s.rec.AddFlops(PhaseNear, pairs*NearFlopsPerPair)
}

// nearSplit turns a round into its job lists for the occupancies of this
// solve, in buffers the Solver owns. Row pairs with an empty side are
// dropped. A pair above nearSplitPairs — a crowded row against another, which
// would otherwise be most of its round in one job — becomes four tiles on
// the halves T1, T2 and S1, S2 of the two rows' particles, taken round-robin:
// (T1,S1) and (T2,S2) join the first list, (T1,S2) and (T2,S1) make up a
// second one, run after a barrier of its own; the tiles of either list write
// disjoint particles. The split depends on the occupancies alone, never on
// the pool, so the summation order still does not.
//
// A job sweeps its source range once per target, and a core sweeping the
// range that begins where another core's sweep ends loses a quarter of its
// rate to that core's prefetcher running on into its lines. S1 and S2 are
// adjacent, so the two T1 tiles are taken transposed (sources as targets:
// the same pairs, swept along T1): a list's two sweeps are then T1 and a
// half of S, at least half a row apart.
func (s *Solver) nearSplit(r *nearRound) (first, second []nearJob, work int) {
	n, start := s.part.Grid, s.part.Start
	first, second = s.nearJobs[:0], s.nearTiles[:0]
	for _, row := range r.rows {
		j := nearJob{row: int(row), other: int(row) + r.off}
		j.tLo, j.tHi = start[j.row*n], start[(j.row+1)*n]
		j.sLo, j.sHi = start[j.other*n], start[(j.other+1)*n]
		if j.tLo == j.tHi || j.sLo == j.sHi {
			continue
		}
		work += (j.tHi - j.tLo) * (j.sHi - j.sLo)
		if r.off == 0 || (j.tHi-j.tLo)*(j.sHi-j.sLo) <= nearSplitPairs {
			first = append(first, j)
			continue
		}
		tm, sm := (j.tLo+j.tHi)/2, (j.sLo+j.sHi)/2
		t1 := nearJob{row: j.other, other: j.row, sLo: j.tLo, sHi: tm} // transposed
		t2 := nearJob{row: j.row, other: j.other, tLo: tm, tHi: j.tHi}
		t1s1, t1s2, t2s1, t2s2 := t1, t1, t2, t2
		t1s1.tLo, t1s1.tHi = j.sLo, sm
		t1s2.tLo, t1s2.tHi = sm, j.sHi
		t2s1.sLo, t2s1.sHi = j.sLo, sm
		t2s2.sLo, t2s2.sHi = sm, j.sHi
		first, second = append(first, t1s1, t2s2), append(second, t1s2, t2s1)
	}
	s.nearJobs, s.nearTiles = first, second
	return first, second, work
}

// nearRow is the body of a round's region (s.nearRun): job i of the list in
// flight. Box indices run x fastest, so the 2d+1 x-neighbours of a box in
// the other row are one contiguous run of the mirrors, clipped at the grid
// edges (and to the job's tile): one kernel call per box, over sources up to
// 2d+1 boxes long. In the own-row round a particle meets what follows it in
// its row — the rest of its box and the d boxes after it — which visits
// every pair within a box, and every pair of boxes at most d apart in x,
// exactly once.
func (s *Solver) nearRow(i int) {
	pipeline.Fire(FaultSiteNearBody)
	j := &s.nearCur[i]
	n, d := s.part.Grid, s.cfg.Separation
	start := s.part.Start
	var pairs int64
	for x := 0; x < n; x++ {
		lo, hi := max(start[j.row*n+x], j.tLo), min(start[j.row*n+x+1], j.tHi)
		if lo >= hi {
			continue
		}
		if j.other != j.row {
			sLo := max(start[j.other*n+max(x-d, 0)], j.sLo)
			sHi := min(start[j.other*n+min(x+d, n-1)+1], j.sHi)
			if sLo < sHi {
				s.nearPair(lo, hi, sLo, sHi)
				pairs += int64(hi-lo) * int64(sHi-sLo)
			}
			continue
		}
		end := start[j.row*n+min(x+d, n-1)+1]
		for p := lo; p < hi && p+1 < end; p++ {
			s.nearPair(p, p+1, p+1, end)
		}
		t := int64(hi - lo)
		pairs += t*(t-1)/2 + t*int64(end-hi)
	}
	s.nearPairs.Add(pairs)
}

// nearPair evaluates every pair of a target in [tLo, tHi) and a source in
// [sLo, sHi) of the mirrors, two disjoint non-empty ranges, writing both.
func (s *Solver) nearPair(tLo, tHi, sLo, sHi int) {
	if s.in.acc == nil {
		kernels.PairwisePotentialSoA(s.xs[tLo:tHi], s.ys[tLo:tHi], s.zs[tLo:tHi], s.qS[tLo:tHi], s.phiS[tLo:tHi],
			s.xs[sLo:sHi], s.ys[sLo:sHi], s.zs[sLo:sHi], s.qS[sLo:sHi], s.phiS[sLo:sHi])
		return
	}
	kernels.PairwiseFusedSoA(s.xs[tLo:tHi], s.ys[tLo:tHi], s.zs[tLo:tHi], s.qS[tLo:tHi],
		s.phiS[tLo:tHi], s.gx[tLo:tHi], s.gy[tLo:tHi], s.gz[tLo:tHi],
		s.xs[sLo:sHi], s.ys[sLo:sHi], s.zs[sLo:sHi], s.qS[sLo:sHi],
		s.phiS[sLo:sHi], s.gx[sLo:sHi], s.gy[sLo:sHi], s.gz[sLo:sHi])
}
