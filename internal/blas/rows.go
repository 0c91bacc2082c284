package blas

// This file holds the gather-free form of an aggregated translation: with
// the K-vectors of many boxes laid out as the rows of a strided matrix, the
// conversion of all of them by one translation matrix T is
//
//	C[P x K] += B[P x K] * Tᵀ
//
// and needs no transposing copy on either side — each box's K values are
// already contiguous, and a lattice of boxes is just a row stride (the
// copy the paper's Table 3 charges 2/K of the multiply for is gone). The
// two sides stride independently, so the same call serves a translation
// within one grid (T2: both sides two boxes apart) and one between a parent
// grid and its same-octant children (T1, T3, supernode T2: one side dense,
// the other two apart). The kernels read Tᵀ row by row, so callers keep
// their matrices transposed and hand them in as tt.
//
// Reduction orders are the backends' documented ones (dispatch.go), applied
// per destination element to a sum that starts from zero and is then added
// into the destination once:
//
//   - scalar: k-terms grouped in fours, each group summed left to right,
//     groups accumulated ascending k, then dst += sum.
//   - avx2: s = 0; s = fma(T[i,k], src[k], s) ascending k; dst += s.
//
// Both are pinned bitwise against element transcriptions by
// TestDgemmRowsTOrderExact; the solvers' reproducibility contracts rest on
// them.

// Strides places the vectors of one side of a slab: vector (r, i) starts at
// element r*Row + i*Box of that side's slice.
type Strides struct{ Box, Row int }

// DgemmRowsT computes, for every r < rows and i < n,
//
//	dst[d : d+K] += T * src[s : s+K],   s = r*ss.Row + i*ss.Box,
//	                                    d = r*ds.Row + i*ds.Box,
//
// where tt holds Tᵀ (K x K, row-major: tt[j*K+i] = T[i][j]). src and dst
// start at the first vector of the slab; the vectors of a side must not
// overlap (Box >= K). The call counts as one K x K x (rows*n) GEMM.
func DgemmRowsT(tt Matrix, src, dst []float64, n, rows int, ss, ds Strides) {
	k := tt.Rows
	if tt.Cols != k {
		panic("blas: DgemmRowsT needs a square matrix")
	}
	if n <= 0 || rows <= 0 || k == 0 {
		return
	}
	ss.check("source", k, n, rows, len(src))
	ds.check("destination", k, n, rows, len(dst))
	if countersOn.Load() {
		countGemm(k, k, rows*n)
	}
	for r := 0; r < rows; r++ {
		rowsTImpl(k, n, ss.Box, ds.Box, tt.Data, src[r*ss.Row:], dst[r*ds.Row:])
	}
}

// check panics unless a rows x n slab of K-vectors laid out by st fits in
// size elements without two vectors of a row overlapping.
func (st Strides) check(side string, k, n, rows, size int) {
	if st.Box < k || st.Row < 0 {
		panic("blas: DgemmRowsT " + side + " vectors overlap")
	}
	if end := (rows-1)*st.Row + (n-1)*st.Box + k; end > size {
		panic("blas: DgemmRowsT slab exceeds " + side)
	}
}

// DgemvT computes y += T*x given tt = Tᵀ: the single-vector case of
// DgemmRowsT, in the same reduction order, counted as one Dgemv. Per-box
// translation paths use it so that they and the aggregated sweeps read one
// resident copy of each matrix and agree bitwise.
func DgemvT(tt Matrix, x, y []float64) {
	k := tt.Rows
	if tt.Cols != k || len(x) != k || len(y) != k {
		panic("blas: DgemvT shape mismatch")
	}
	if k == 0 {
		return
	}
	if countersOn.Load() {
		countGemv(k, k)
	}
	rowsTImpl(k, 1, k, k, tt.Data, x, y)
}

// rowsTScalar is the portable row kernel, one box at a time.
func rowsTScalar(k, n, srcStride, dstStride int, tt, src, dst []float64) {
	if k == 12 {
		for i := 0; i < n; i++ {
			so, do := i*srcStride, i*dstStride
			rowTK12(tt, src[so:so+12], dst[do:do+12])
		}
		return
	}
	// The sums of one box, kept apart from dst until complete (the order
	// contract adds them in once). On the stack for every K in use.
	var buf [128]float64
	acc := buf[:]
	if k > len(buf) {
		acc = make([]float64, k)
	}
	for i := 0; i < n; i++ {
		so, do := i*srcStride, i*dstStride
		rowT(k, tt, src[so:so+k], dst[do:do+k], acc[:k])
	}
}

// rowT computes y += T*x from tt = Tᵀ in the grouped-fours order: gemm4k's
// k-unrolled stream with Tᵀ in the role of B and the first group assigning,
// so rows of tt are read front to back once per box.
func rowT(k int, tt, x, y, acc []float64) {
	var kk int
	if k >= 4 {
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		t0, t1, t2, t3 := tt[0:k], tt[k:2*k], tt[2*k:3*k], tt[3*k:4*k]
		for r := range acc {
			acc[r] = t0[r]*x0 + t1[r]*x1 + t2[r]*x2 + t3[r]*x3
		}
		kk = 4
	} else {
		x0 := x[0]
		t0 := tt[0:k]
		for r := range acc {
			acc[r] = t0[r] * x0
		}
		kk = 1
	}
	for ; kk+3 < k; kk += 4 {
		x0, x1, x2, x3 := x[kk], x[kk+1], x[kk+2], x[kk+3]
		t0, t1, t2, t3 := tt[kk*k:(kk+1)*k], tt[(kk+1)*k:(kk+2)*k], tt[(kk+2)*k:(kk+3)*k], tt[(kk+3)*k:(kk+4)*k]
		for r := range acc {
			acc[r] += t0[r]*x0 + t1[r]*x1 + t2[r]*x2 + t3[r]*x3
		}
	}
	for ; kk < k; kk++ {
		x0 := x[kk]
		t0 := tt[kk*k : (kk+1)*k]
		for r := range acc {
			acc[r] += t0[r] * x0
		}
	}
	for r, v := range acc {
		y[r] += v
	}
}

// rowTK12 is the K = 12 (icosahedral rule) fast path: the same order with
// constant trip counts and four destination elements at a time held in
// scalars across the k loop — no sums buffer, bounds checks proved away.
func rowTK12(tt, x, y []float64) {
	tt = tt[:144]
	x = x[:12]
	y = y[:12]
	for r := 0; r < 12; r += 4 {
		var s0, s1, s2, s3 float64
		for kk := 0; kk < 12; kk += 4 {
			b := kk*12 + r
			t0, t1, t2, t3 := tt[b:b+4], tt[b+12:b+16], tt[b+24:b+28], tt[b+36:b+40]
			x0, x1, x2, x3 := x[kk], x[kk+1], x[kk+2], x[kk+3]
			g0 := t0[0]*x0 + t1[0]*x1 + t2[0]*x2 + t3[0]*x3
			g1 := t0[1]*x0 + t1[1]*x1 + t2[1]*x2 + t3[1]*x3
			g2 := t0[2]*x0 + t1[2]*x1 + t2[2]*x2 + t3[2]*x3
			g3 := t0[3]*x0 + t1[3]*x1 + t2[3]*x2 + t3[3]*x3
			if kk == 0 {
				s0, s1, s2, s3 = g0, g1, g2, g3
			} else {
				s0, s1, s2, s3 = s0+g0, s1+g1, s2+g2, s3+g3
			}
		}
		y[r] += s0
		y[r+1] += s1
		y[r+2] += s2
		y[r+3] += s3
	}
}
