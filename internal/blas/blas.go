// Package blas implements the dense linear-algebra kernels Anderson's
// translations reduce to. The paper's central arithmetic optimization
// (Section 3.3.3) is to express each translation operator as a K x K matrix,
// apply it to a potential vector as a level-2 BLAS matrix-vector product,
// and then aggregate the translations of many boxes into level-3 BLAS
// matrix-matrix products. This package provides those kernels over
// row-major float64 matrices: the strided slab kernel DgemmRowsT and its
// single-vector case DgemvT (rows.go), which every solver's translations
// run on; the streaming Dgemm and its multiple-instance form
// ParallelMultiGemm (the CMSSL notion of a batched GEMM), kept for the
// benchmark's kernel probes; and Daxpy and Ddot. Scalar and vector bodies
// sit behind one backend seam (dispatch.go).
package blas

import "fmt"

// Matrix is a dense row-major matrix: element (i, j) is Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// String implements fmt.Stringer (shape only; matrices here can be large).
func (m Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// Ddot returns the inner product of x and y; the slices must have equal
// length.
func Ddot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: Ddot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Daxpy computes y += alpha*x.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Daxpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// DgemvFlops returns the floating-point operation count of one matrix-vector
// product y += A*x of the given shape (the 2mn convention used throughout
// the paper's efficiency numbers).
func DgemvFlops(rows, cols int) int64 { return 2 * int64(rows) * int64(cols) }

// Dgemm computes C += A*B. A is m x k, B is k x n, C is m x n, all
// row-major. All shapes go through backend-dispatched streaming kernels
// (dispatch.go) with constant trip-count fast paths for the paper's K = 12
// and K = 72 translation shapes: on the scalar backend the k-unrolled
// streams of gemm_stream.go, on AVX2 hosts the FMA kernels of
// gemm_avx2_amd64.s. The inner loop is branch-free (the seed's aik == 0
// skip cost a mispredicted branch per element on dense translation
// matrices). Each backend's reduction order is fixed, so results are
// bitwise deterministic call to call within a backend.
func Dgemm(a, b, c Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("blas: Dgemm shape mismatch")
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if countersOn.Load() {
		countGemm(m, k, n)
	}
	switch k {
	case 12:
		gemmK12Impl(m, n, a.Data, b.Data, c.Data)
	case 72:
		gemmK72Impl(m, n, a.Data, b.Data, c.Data)
	default:
		gemmImpl(m, k, n, a.Data, b.Data, c.Data)
	}
}

// DgemmFlops returns the floating-point operation count of one Dgemm of the
// given shape (2mkn).
func DgemmFlops(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
