package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nbody/internal/simd"
)

// jobByBoxes is the walk the job entries take, one per-box call at a time
// through PairwisePotentialSoA or PairwiseFusedSoA: the order the entries
// must reproduce bit for bit. It returns the job's pair count.
func jobByBoxes(fused bool, p *NearPlanes, j *NearJob) (pairs int64) {
	call := func(tLo, tHi, sLo, sHi int) {
		if fused {
			PairwiseFusedSoA(p.X[tLo:tHi], p.Y[tLo:tHi], p.Z[tLo:tHi], p.Q[tLo:tHi], p.Phi[tLo:tHi], p.GX[tLo:tHi], p.GY[tLo:tHi], p.GZ[tLo:tHi],
				p.X[sLo:sHi], p.Y[sLo:sHi], p.Z[sLo:sHi], p.Q[sLo:sHi], p.Phi[sLo:sHi], p.GX[sLo:sHi], p.GY[sLo:sHi], p.GZ[sLo:sHi])
			return
		}
		PairwisePotentialSoA(p.X[tLo:tHi], p.Y[tLo:tHi], p.Z[tLo:tHi], p.Q[tLo:tHi], p.Phi[tLo:tHi],
			p.X[sLo:sHi], p.Y[sLo:sHi], p.Z[sLo:sHi], p.Q[sLo:sHi], p.Phi[sLo:sHi])
	}
	n, d := len(j.T)-1, j.D
	for x := 0; x < n; x++ {
		lo, hi := max(j.T[x], j.TLo), min(j.T[x+1], j.THi)
		if lo >= hi {
			continue
		}
		if j.S == nil {
			end := j.T[min(x+d, n-1)+1]
			for t := lo; t < hi && t+1 < end; t++ {
				call(t, t+1, t+1, end)
			}
			c := int64(hi - lo)
			pairs += c*(c-1)/2 + c*int64(end-hi)
			continue
		}
		sLo, sHi := max(j.S[max(x-d, 0)], j.SLo), min(j.S[min(x+d, n-1)+1], j.SHi)
		if sLo < sHi {
			call(lo, hi, sLo, sHi)
			pairs += int64(hi-lo) * int64(sHi-sLo)
		}
	}
	return pairs
}

// jobOccupancies are the box sizes the rows draw from: empty boxes, one
// and two particles (a lone target, a target pair), nine (a pair of targets
// and an odd one; a group of eight and one) and crowded boxes past 64.
var jobOccupancies = []int{0, 0, 1, 2, 9, 64, 67}

// jobRows lays out two rows of n boxes each with random occupancies on
// fresh planes (row A first), and returns the planes and the two rows' box
// boundaries. The planes sit at the front of NaN-poisoned buffers, and one
// particle of B sits on one of A, a dead lane among live ones.
func jobRows(rng *rand.Rand, n int) (p *NearPlanes, ta, tb []int) {
	ta, tb = make([]int, n+1), make([]int, n+1)
	at := 0
	for _, row := range [][]int{ta, tb} {
		for x := 0; x < n; x++ {
			row[x] = at
			at += jobOccupancies[rng.Intn(len(jobOccupancies))]
		}
		row[n] = at
	}
	fill := func(int) float64 { return rng.NormFloat64() }
	p = &NearPlanes{}
	for _, plane := range []*[]float64{&p.X, &p.Y, &p.Z, &p.Q, &p.Phi, &p.GX, &p.GY, &p.GZ} {
		*plane = poisoned(at, fill)
	}
	if a, b := ta[0], tb[0]; a < ta[n] && b < tb[n] {
		p.X[b], p.Y[b], p.Z[b] = p.X[a], p.Y[a], p.Z[a]
	}
	return p, ta, tb
}

func (p *NearPlanes) clone() *NearPlanes {
	c := &NearPlanes{}
	dst := []*[]float64{&c.X, &c.Y, &c.Z, &c.Q, &c.Phi, &c.GX, &c.GY, &c.GZ}
	for k, plane := range [][]float64{p.X, p.Y, p.Z, p.Q, p.Phi, p.GX, p.GY, p.GZ} {
		*dst[k] = poisoned(len(plane), func(i int) float64 { return plane[i] })
	}
	return c
}

// jobsOf lists the jobs of rows A and B: both own rows, the row pair both
// ways, the four tiles of the pair split at its midpoints — the T1 tiles
// transposed, as the solver takes them — and a tile at random bounds.
func jobsOf(rng *rand.Rand, ta, tb []int, d int) []NearJob {
	n := len(ta) - 1
	aLo, aHi, bLo, bHi := ta[0], ta[n], tb[0], tb[n]
	am, bm := (aLo+aHi)/2, (bLo+bHi)/2
	r := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	ra, rb := r(aLo, aHi), r(bLo, bHi)
	return []NearJob{
		{T: ta, D: d, TLo: aLo, THi: aHi},
		{T: tb, D: d, TLo: bLo, THi: bHi},
		{T: ta, S: tb, D: d, TLo: aLo, THi: aHi, SLo: bLo, SHi: bHi},
		{T: tb, S: ta, D: d, TLo: bLo, THi: bHi, SLo: aLo, SHi: aHi},
		{T: tb, S: ta, D: d, TLo: bLo, THi: bm, SLo: aLo, SHi: am}, // T1 S1, transposed
		{T: tb, S: ta, D: d, TLo: bm, THi: bHi, SLo: aLo, SHi: am}, // T1 S2, transposed
		{T: ta, S: tb, D: d, TLo: am, THi: aHi, SLo: bLo, SHi: bm}, // T2 S1
		{T: ta, S: tb, D: d, TLo: am, THi: aHi, SLo: bm, SHi: bHi}, // T2 S2
		{T: ta, S: tb, D: d, TLo: r(aLo, ra), THi: ra, SLo: rb, SHi: r(rb, bHi)},
	}
}

// TestNearJobMatchesPerBoxCalls holds both job entries to a loop of per-box
// calls, bit for bit on every plane and in the pair count, on every backend:
// random rows of empty, lone, paired, odd and crowded boxes at widths from
// one box (every window clipped at both grid edges) up, for both
// separations, the own rows, the row pair both ways and its tiles.
func TestNearJobMatchesPerBoxCalls(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(47))
				for _, n := range []int{1, 2, 5, 16, 70} {
					for d := 1; d <= 2; d++ {
						for rep := 0; rep < 4; rep++ {
							p, ta, tb := jobRows(rng, n)
							for k, j := range jobsOf(rng, ta, tb, d) {
								for _, fused := range []bool{false, true} {
									name := fmt.Sprintf("n=%d d=%d rep=%d job=%d fused=%v", n, d, rep, k, fused)
									got, want := p.clone(), p.clone()
									var pairs int64
									if fused {
										pairs = PairwiseFusedJob(got, &j)
									} else {
										pairs = PairwisePotentialJob(got, &j)
									}
									if wantPairs := jobByBoxes(fused, want, &j); pairs != wantPairs {
										t.Fatalf("%s: %d pairs, the per-box walk has %d", name, pairs, wantPairs)
									}
									for k, plane := range [][]float64{got.Phi, got.GX, got.GY, got.GZ} {
										wplane := [][]float64{want.Phi, want.GX, want.GY, want.GZ}[k]
										for i := range plane {
											if math.Float64bits(plane[i]) != math.Float64bits(wplane[i]) {
												t.Fatalf("%s: plane %d element %d: job %v, per-box calls %v", name, k, i, plane[i], wplane[i])
											}
										}
									}
								}
							}
						}
					}
				}
			})
		})
	}
}

// TestNearJobRejectsBadJobs: a job whose ranges leave the planes, or whose
// two sides overlap, panics before the walk touches memory.
func TestNearJobRejectsBadJobs(t *testing.T) {
	p := &NearPlanes{X: make([]float64, 8), Y: make([]float64, 8), Z: make([]float64, 8), Q: make([]float64, 8), Phi: make([]float64, 8)}
	row := []int{0, 4, 8}
	for name, j := range map[string]NearJob{
		"targets past the planes": {T: row, THi: 9},
		"sources past the planes": {T: row, S: row, THi: 4, SLo: 4, SHi: 9},
		"overlapping sides":       {T: row, S: row, THi: 5, SLo: 4, SHi: 8},
		"no boxes":                {T: row[:1]},
		"rows of unequal lengths": {T: row, S: row[:2], THi: 4, SLo: 4, SHi: 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			PairwisePotentialJob(p, &j)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fused job on planes without a field: no panic")
			}
		}()
		PairwiseFusedJob(p, &NearJob{T: row, THi: 8})
	}()
}
