package kernels

// The job-level entries of the two symmetric pair kernels: the shared-memory
// solver's near field (core.Solver.nearRow) hands each kernel one job —
// a pair of x-rows of leaf boxes, a tile of one, or one row against itself
// — and the kernel walks the job's boxes and their windows itself. A job
// gives every particle its contributions in the order the same walk's
// per-box calls (PairwisePotentialSoA, PairwiseFusedSoA) give them, so the
// bits are theirs on every backend.

// NearPlanes are the planes a near-field job reads and writes: one
// box-sorted plane per attribute, the positions and charges read, the
// potential (and, for the fused kernel, the field) accumulated in place.
// Every plane a kernel touches is at least len(X) long.
type NearPlanes struct {
	X, Y, Z, Q, Phi, GX, GY, GZ []float64
}

// NearJob is one job of the near-field sweep on NearPlanes. T and S are the
// box boundaries of the target and the source row: box x of a row holds the
// particles [T[x], T[x+1]) (n boxes, n+1 entries; a slice of the partition's
// Start). Only targets in [TLo, THi) and sources in [SLo, SHi) take part: a
// whole row, or a tile of one, disjoint from the other side.
//
// With S set, a target in box x meets the sources of boxes x-D … x+D of S,
// clipped at the row's ends and to the tile: one contiguous run of the
// planes, its window. With S nil the job is the own row: a target p in box x
// meets p+1 up to the end of box x+D of T, which visits every pair within a
// box, and every pair of boxes at most D apart, once.
type NearJob struct {
	T, S               []int
	D                  int
	TLo, THi, SLo, SHi int
}

// boxCall is one per-box kernel call of a job: targets [t0, t1) against
// the sources [s0, s1). In an own-row job target p meets [p+1, s1) instead,
// and s0 is unused. The assembly walkers read it as four int64s.
type boxCall struct{ t0, t1, s0, s1 int }

// callBatch bounds the calls a job hands the body at once: a row of up to
// 64 boxes in one batch, from a buffer on the stack.
const callBatch = 64

// PairwisePotentialJob evaluates every pair of near-field job j on the
// planes p once, depositing on both sides as PairwisePotentialSoA does, and
// returns the number of pairs. Backend-dispatched (dispatch.go).
func PairwisePotentialJob(p *NearPlanes, j *NearJob) (pairs int64) {
	n := j.check(p, p.Phi)
	var buf [callBatch]boxCall
	for x := 0; x < n; {
		var c []boxCall
		c, x, pairs = j.calls(x, n, &buf, pairs)
		pairPotCalls(p, c, j.S == nil)
	}
	return pairs
}

// PairwiseFusedJob is PairwisePotentialJob for the potential and the field,
// depositing as PairwiseFusedSoA does. Backend-dispatched (dispatch.go).
func PairwiseFusedJob(p *NearPlanes, j *NearJob) (pairs int64) {
	n := j.check(p, p.Phi, p.GX, p.GY, p.GZ)
	var buf [callBatch]boxCall
	for x := 0; x < n; {
		var c []boxCall
		c, x, pairs = j.calls(x, n, &buf, pairs)
		pairFusedCalls(p, c, j.S == nil)
	}
	return pairs
}

// check validates the job against the planes and returns the row's box
// count. Every call the walk makes stays within [TLo, THi) and [SLo, SHi)
// whatever T and S hold, so these bounds are what keeps the assembly inside
// the planes.
func (j *NearJob) check(p *NearPlanes, out ...[]float64) int {
	np := len(p.X)
	short := len(p.Y) < np || len(p.Z) < np || len(p.Q) < np
	for _, plane := range out {
		short = short || len(plane) < np
	}
	if short {
		panic("kernels: near-field plane shorter than X")
	}
	n := len(j.T) - 1
	switch {
	case n < 1 || j.D < 0:
		panic("kernels: near-field job without boxes, or with a negative separation")
	case j.TLo < 0 || j.TLo > j.THi || j.THi > np:
		panic("kernels: near-field targets outside the planes")
	case j.S == nil:
		return n
	case len(j.S) != len(j.T):
		panic("kernels: near-field rows of different lengths")
	case j.SLo < 0 || j.SLo > j.SHi || j.SHi > np:
		panic("kernels: near-field sources outside the planes")
	case j.TLo < j.SHi && j.SLo < j.THi:
		panic("kernels: near-field targets overlap the sources")
	}
	return n
}

// calls fills buf with the job's non-empty per-box calls from box x on, and
// returns them, the box to resume at and pairs plus their pair count.
func (j *NearJob) calls(x, n int, buf *[callBatch]boxCall, pairs int64) ([]boxCall, int, int64) {
	k, t, s, d := 0, j.T, j.S, j.D
	for ; x < n && k < callBatch; x++ {
		lo, hi := max(t[x], j.TLo), min(t[x+1], j.THi)
		if lo >= hi {
			continue
		}
		if s == nil {
			end := min(t[min(x+d, n-1)+1], j.THi)
			if lo+1 >= end {
				continue
			}
			c := int64(hi - lo)
			pairs += c*(c-1)/2 + c*int64(end-hi)
			buf[k] = boxCall{lo, hi, lo + 1, end}
			k++
			continue
		}
		sLo := max(s[max(x-d, 0)], j.SLo)
		sHi := min(s[min(x+d, n-1)+1], j.SHi)
		if sLo < sHi {
			pairs += int64(hi-lo) * int64(sHi-sLo)
			buf[k] = boxCall{lo, hi, sLo, sHi}
			k++
		}
	}
	return buf[:k], x, pairs
}

// pairPotCalls runs a batch of per-box potential calls: one assembly call on
// avx512, otherwise the backend's per-box body once per call.
func pairPotCalls(p *NearPlanes, calls []boxCall, own bool) {
	if len(calls) == 0 {
		return
	}
	if pairJobAVX512 {
		pairPotCallsAVX512(p, calls, own)
		return
	}
	x, y, z, q, phi, body := p.X, p.Y, p.Z, p.Q, p.Phi, pairPotSoAImpl
	for _, c := range calls {
		if !own {
			body(x[c.t0:c.t1], y[c.t0:c.t1], z[c.t0:c.t1], q[c.t0:c.t1], phi[c.t0:c.t1],
				x[c.s0:c.s1], y[c.s0:c.s1], z[c.s0:c.s1], q[c.s0:c.s1], phi[c.s0:c.s1])
			continue
		}
		for t := c.t0; t < c.t1 && t+1 < c.s1; t++ {
			body(x[t:t+1], y[t:t+1], z[t:t+1], q[t:t+1], phi[t:t+1],
				x[t+1:c.s1], y[t+1:c.s1], z[t+1:c.s1], q[t+1:c.s1], phi[t+1:c.s1])
		}
	}
}

// pairFusedCalls is pairPotCalls for the fused kernel.
func pairFusedCalls(p *NearPlanes, calls []boxCall, own bool) {
	if len(calls) == 0 {
		return
	}
	if pairJobAVX512 {
		pairFusedCallsAVX512(p, calls, own)
		return
	}
	x, y, z, q, phi, gx, gy, gz, body := p.X, p.Y, p.Z, p.Q, p.Phi, p.GX, p.GY, p.GZ, pairFusedSoAImpl
	for _, c := range calls {
		if !own {
			body(x[c.t0:c.t1], y[c.t0:c.t1], z[c.t0:c.t1], q[c.t0:c.t1], phi[c.t0:c.t1], gx[c.t0:c.t1], gy[c.t0:c.t1], gz[c.t0:c.t1],
				x[c.s0:c.s1], y[c.s0:c.s1], z[c.s0:c.s1], q[c.s0:c.s1], phi[c.s0:c.s1], gx[c.s0:c.s1], gy[c.s0:c.s1], gz[c.s0:c.s1])
			continue
		}
		for t := c.t0; t < c.t1 && t+1 < c.s1; t++ {
			body(x[t:t+1], y[t:t+1], z[t:t+1], q[t:t+1], phi[t:t+1], gx[t:t+1], gy[t:t+1], gz[t:t+1],
				x[t+1:c.s1], y[t+1:c.s1], z[t+1:c.s1], q[t+1:c.s1], phi[t+1:c.s1], gx[t+1:c.s1], gy[t+1:c.s1], gz[t+1:c.s1])
		}
	}
}
