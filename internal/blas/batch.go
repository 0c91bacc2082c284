package blas

import "nbody/internal/sched"

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
