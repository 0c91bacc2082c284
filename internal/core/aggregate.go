package core

import (
	"context"
	"sync"
	"sync/atomic"

	"nbody/internal/blas"
)

// This file applies the translations of many boxes as level-3 BLAS
// (Section 3.3.3, technique 4), in two forms:
//
//   - aggregatedApply, the paper's form, for the parent-child sweeps (T1,
//     T3): gather the source vectors as columns of a K x chunk block, one
//     GEMM, scatter-add the product. The copy costs 2/K of the multiply
//     (Table 3) — tolerable there, at 8 translations per box.
//   - t2Job, the gather-free form, for the interactive-field conversion
//     (T2, 189 translations per box): the targets of one (octant, offset)
//     are an evenly strided lattice, so with boxes as the ROWS of the
//     product their vectors are multiplied where they lie
//     (blas.DgemmRowsT) and nothing is copied.

// aggScratch holds the working set of one aggregation chunk: the K x chunk
// gathered right-hand block and the K x chunk product block. Pooled by
// pointer so steady-state solves recycle it without allocating.
type aggScratch struct {
	b []float64 // gathered source block, k * aggregationChunk
	c []float64 // product block, k * aggregationChunk
}

var aggPool = sync.Pool{New: func() any { return new(aggScratch) }}

func getAggScratch(k int) *aggScratch {
	s := aggPool.Get().(*aggScratch)
	if cap(s.b) < k*aggregationChunk {
		s.b = make([]float64, k*aggregationChunk)
		s.c = make([]float64, k*aggregationChunk)
	}
	s.b = s.b[:k*aggregationChunk]
	s.c = s.c[:k*aggregationChunk]
	return s
}

// aggregationChunk is the number of potential vectors aggregated into one
// matrix-matrix multiplication. The paper aggregates along a whole subgrid
// axis; here a fixed chunk keeps the working set inside cache independent of
// grid size.
const aggregationChunk = 128

// aggregatedApply performs dst[dstIdx[c]] += T * src[srcIdx[c]] for all c,
// by gathering source vectors as columns of a K x chunk matrix, multiplying
// with one level-3 BLAS call per chunk, and scattering the product columns
// back (Section 3.3.3: "conversions for all local boxes ... with the same
// relative location can be aggregated into a single matrix-matrix
// multiplication", at the cost of the 2/K-relative copy overhead measured
// in Table 3). The multiply is DgemmAssign, so the product block needs no
// zeroing pass between reuses.
//
// dstIdx values must be unique within one call; chunks then write disjoint
// destinations and can run in parallel. With a single executor the chunk
// loop runs inline — no closure, no scheduler round trip — which is what
// keeps steady-state solves allocation-free.
func aggregatedApply(ctx context.Context, t blas.Matrix, src, dst []float64, srcIdx, dstIdx []int32, k int) {
	n := len(srcIdx)
	if n == 0 {
		return
	}
	nchunks := (n + aggregationChunk - 1) / aggregationChunk
	if blas.Serial() || nchunks == 1 {
		s := getAggScratch(k)
		for ci := 0; ci < nchunks; ci++ {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			aggChunk(s, t, src, dst, srcIdx, dstIdx, k, ci)
		}
		aggPool.Put(s)
		return
	}
	_ = blas.ParallelCtx(ctx, nchunks, func(ci int) {
		s := getAggScratch(k)
		aggChunk(s, t, src, dst, srcIdx, dstIdx, k, ci)
		aggPool.Put(s)
	})
}

// aggChunk processes chunk ci of an index-pair aggregation: gather source
// vectors as columns, one assign-gemm, scatter-add the product columns.
func aggChunk(s *aggScratch, t blas.Matrix, src, dst []float64, srcIdx, dstIdx []int32, k, ci int) {
	lo := ci * aggregationChunk
	hi := lo + aggregationChunk
	if hi > len(srcIdx) {
		hi = len(srcIdx)
	}
	cols := hi - lo
	b := blas.Matrix{Rows: k, Cols: cols, Data: s.b[:k*cols]}
	c := blas.Matrix{Rows: k, Cols: cols, Data: s.c[:k*cols]}
	// Gather: column j of B is the potential vector of source box
	// srcIdx[lo+j] (the transposing copy the paper charges 2K cycles per
	// vector for).
	for j := 0; j < cols; j++ {
		sb := int(srcIdx[lo+j]) * k
		col := src[sb : sb+k]
		for r, v := range col {
			b.Data[r*cols+j] = v
		}
	}
	blas.DgemmAssign(t, b, c)
	// Scatter-add: column j of C accumulates into destination box
	// dstIdx[lo+j].
	for j := 0; j < cols; j++ {
		db := int(dstIdx[lo+j]) * k
		out := dst[db : db+k]
		for r := range out {
			out[r] += c.Data[r*cols+j]
		}
	}
}

// t2Job is the body of one level's interactive-field region (see t2Sweep):
// job i applies every lattice of its octant, in s.interactive[oct] order, to
// the targets it owns. Owners are disjoint, so jobs write disjoint boxes,
// and each box receives its offsets in the same order under any schedule —
// results are bitwise independent of the worker count.
func (s *Solver) t2Job(sw *t2Sweep, i int) {
	k := s.ts.K
	far, loc := s.far[sw.level], s.loc[sw.level]
	rowStride := 2 * sw.grid * k
	j := sw.job(i)
	for li := sw.octLo[j.oct]; li < sw.octLo[j.oct+1]; li++ {
		lat := &sw.lats[li]
		first, ok := lat.clip(j)
		if !ok {
			continue
		}
		at := first * k
		blas.DgemmRowsT(lat.tt, far[at+int(lat.delta)*k:], loc[at:], int(lat.nx), 2*k, int(lat.ny), rowStride)
	}
}

// atomicAdd64 accumulates instrumentation counters from parallel workers.
func atomicAdd64(p *int64, v int64) { atomic.AddInt64(p, v) }
