package blas

import (
	"context"

	"nbody/internal/sched"
)

// MultiGemm computes Cs[i] += A * Bs[i] for every instance i: the CMSSL
// "multiple instance matrix-matrix multiplication" of Section 3.3.3, where
// the same translation matrix acts on many aggregated potential blocks.
// Instances run serially; use ParallelMultiGemm to spread them over cores.
func MultiGemm(a Matrix, bs, cs []Matrix) {
	if len(bs) != len(cs) {
		panic("blas: MultiGemm instance count mismatch")
	}
	for i := range bs {
		Dgemm(a, bs[i], cs[i])
	}
}

// ParallelMultiGemm is MultiGemm with instances distributed over the
// persistent worker pool. Instances are claimed in contiguous chunks from
// an atomic counter (no mutex, no per-call goroutines), so many small
// instances do not serialize on a shared work index. Instances must write
// disjoint C matrices, which the aggregation schemes in this repository
// guarantee by construction.
func ParallelMultiGemm(a Matrix, bs, cs []Matrix) {
	if len(bs) != len(cs) {
		panic("blas: ParallelMultiGemm instance count mismatch")
	}
	sched.RunChunks(len(bs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			Dgemm(a, bs[i], cs[i])
		}
	})
}

// GemvBatch applies y[i] += A * x[i] over parallel slices-of-vectors. It is
// the unaggregated (level-2) reference against which the aggregation
// benchmarks compare.
func GemvBatch(a Matrix, xs, ys [][]float64) {
	if len(xs) != len(ys) {
		panic("blas: GemvBatch length mismatch")
	}
	for i := range xs {
		Dgemv(a, xs[i], ys[i])
	}
}

// Parallel runs fn(i) for i in [0, n) over the persistent worker pool with
// dynamic chunk claiming (see internal/sched). It is the generic
// work-sharing driver used by the shared-memory solvers. fn must be safe
// to call concurrently for distinct i.
func Parallel(n int, fn func(i int)) { sched.Run(n, fn) }

// ParallelCtx is Parallel with cooperative cancellation: participants check
// ctx between chunk claims, so a canceled context stops the sweep within one
// chunk's work and ParallelCtx returns ctx.Err(). A nil ctx is identical to
// Parallel (no overhead beyond a nil compare).
func ParallelCtx(ctx context.Context, n int, fn func(i int)) error {
	return sched.RunCtx(ctx, n, fn)
}

// ParallelChunksCtx runs body(lo, hi) over a chunk partition of [0, n) on
// the worker pool, so per-chunk setup (scratch buffers, local accumulators)
// is amortized over the chunk; cancellation follows the ParallelCtx
// contract.
func ParallelChunksCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	return sched.RunChunksCtx(ctx, n, body)
}

// Serial reports whether the worker pool has a single executor, i.e.
// Parallel would run every body inline on the caller. Hot paths that issue
// thousands of tiny parallel regions per solve use this to take a plain
// loop instead — same work order, but no escaping closure per region.
func Serial() bool { return sched.Workers() == 1 }
