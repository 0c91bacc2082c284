package blas

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"nbody/internal/simd"
)

// rowsCase is one strided slab: rows x n vectors of length k, laid out by
// ss on the source side and ds on the destination side.
type rowsCase struct {
	k, n, rows int
	ss, ds     Strides
}

// rowsCases covers the K = 12 fast path, the other small-K path (K = 4, 8,
// 16: the 2-D solver's), generic K with full 12-column blocks only (72),
// with a four-column tail (32) and with a masked tail (50), every box-group class (4, 2, 1 and their mixes), and every pairing
// of strides the solvers use: both sides dense, both sides a lattice (2K),
// dense sources into a lattice (parent -> children) and the reverse
// (children -> parent), in single rows and in multi-row slabs whose row
// strides differ per side as a parent grid's and a child grid's do. The
// K = 12 slabs whose n*rows takes every residue mod 8 walk the avx512
// body's groups of 8, 4, 2 and 1 across row ends from every starting
// column, and the level-4 T2 planes are the solver's own shapes.
func rowsCases() []rowsCase {
	var cs []rowsCase
	for _, k := range []int{8, 12, 16, 32, 50, 72} {
		for _, n := range []int{1, 3, 4, 5, 8, 64} {
			for _, s := range []int{k, 2 * k} {
				for _, d := range []int{k, 2 * k} {
					cs = append(cs, rowsCase{k, n, 1, Strides{Box: s}, Strides{Box: d}})
				}
			}
		}
		// Grids of 16 (lattice side) and 8 (dense side) boxes per axis.
		lattice, dense := Strides{2 * k, 2 * 16 * k}, Strides{k, 8 * k}
		cs = append(cs,
			rowsCase{k, 7, 3, lattice, lattice},
			rowsCase{k, 7, 3, dense, lattice},
			rowsCase{k, 7, 3, lattice, dense})
	}
	for n := 1; n <= 9; n++ {
		lattice, dense := Strides{24, 24 * 16}, Strides{12, 12 * n}
		for _, rows := range []int{1, 2, 3, 8} {
			cs = append(cs,
				rowsCase{12, n, rows, lattice, lattice},
				rowsCase{12, n, rows, dense, lattice},
				rowsCase{12, n, rows, lattice, dense})
		}
	}
	for _, p := range t2Planes {
		cs = append(cs, p.c)
	}
	// Shapes below every unroll width, and odd K.
	for _, k := range []int{1, 2, 3, 4, 5, 13, 98} {
		a, b := Strides{k + 1, 9 * (k + 1)}, Strides{2*k + 3, 7 * (2*k + 3)}
		cs = append(cs, rowsCase{k, 6, 2, a, a}, rowsCase{k, 6, 2, a, b}, rowsCase{k, 6, 2, b, a})
	}
	return cs
}

// each calls f with the source and destination element offset of every
// vector.
func (c rowsCase) each(f func(so, do int)) {
	for r := 0; r < c.rows; r++ {
		for i := 0; i < c.n; i++ {
			f(r*c.ss.Row+i*c.ss.Box, r*c.ds.Row+i*c.ds.Box)
		}
	}
}

// size returns the length of the shortest slice holding one side of the
// slab.
func (c rowsCase) size(st Strides) int { return (c.rows-1)*st.Row + (c.n-1)*st.Box + c.k }

// slabRef applies dst += T*src over the slab one element at a time, with
// elem computing one destination element's sum from a row of T.
func slabRef(c rowsCase, t Matrix, src, dst []float64, elem func(trow, x []float64) float64) {
	c.each(func(so, do int) {
		x := src[so : so+c.k]
		for e := 0; e < c.k; e++ {
			dst[do+e] += elem(t.Row(e), x)
		}
	})
}

// fmaElem transcribes the avx2 order: one FMA chain from zero, ascending.
func fmaElem(trow, x []float64) float64 {
	var s float64
	for j, v := range trow {
		s = math.FMA(v, x[j], s)
	}
	return s
}

// groupedElem transcribes the scalar order: the first group of four (or
// the first term when k < 4) starts the sum, further groups of four are
// summed left to right and accumulated, the remainder one at a time.
func groupedElem(trow, x []float64) float64 {
	k := len(trow)
	var (
		s  float64
		kk int
	)
	if k >= 4 {
		s = trow[0]*x[0] + trow[1]*x[1] + trow[2]*x[2] + trow[3]*x[3]
		kk = 4
	} else {
		s = trow[0] * x[0]
		kk = 1
	}
	for ; kk+3 < k; kk += 4 {
		s += trow[kk]*x[kk] + trow[kk+1]*x[kk+1] + trow[kk+2]*x[kk+2] + trow[kk+3]*x[kk+3]
	}
	for ; kk < k; kk++ {
		s += trow[kk] * x[kk]
	}
	return s
}

func transpose(t Matrix) Matrix {
	tt := NewMatrix(t.Cols, t.Rows)
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			tt.Set(j, i, t.At(i, j))
		}
	}
	return tt
}

// rowsOperands draws a matrix, its transpose, and a source and destination
// slab (gaps between vectors filled too, so a stray write shows).
func rowsOperands(rng *rand.Rand, c rowsCase) (t, tt Matrix, src, dst []float64) {
	t = randMatrix(rng, c.k, c.k)
	tt = transpose(t)
	src = make([]float64, c.size(c.ss))
	dst = make([]float64, c.size(c.ds))
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	for i := range dst {
		dst[i] = rng.NormFloat64()
	}
	return t, tt, src, dst
}

// checkRowsOrderExact pins DgemmRowsT on the active backend, bitwise,
// against the element transcription of its documented order.
func checkRowsOrderExact(t *testing.T, elem func(trow, x []float64) float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	for _, c := range rowsCases() {
		tm, tt, src, dst0 := rowsOperands(rng, c)

		got := append([]float64(nil), dst0...)
		DgemmRowsT(tt, src, got, c.n, c.rows, c.ss, c.ds)

		want := append([]float64(nil), dst0...)
		slabRef(c, tm, src, want, elem)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %+v: element %d = %g, want bitwise %g", c, i, got[i], want[i])
			}
		}

		// The single-vector entry follows the same order.
		y := append([]float64(nil), dst0[:c.k]...)
		DgemvT(tt, src[:c.k], y)
		for e := range y {
			if y[e] != want[e] {
				t.Fatalf("case %+v: DgemvT element %d = %g, want bitwise %g", c, e, y[e], want[e])
			}
		}
	}
}

// TestDgemmRowsTOrderExact pins the row kernel of each backend to its
// documented reduction order; avx512's is avx2's.
func TestDgemmRowsTOrderExact(t *testing.T) {
	t.Run(simd.Scalar, func(t *testing.T) {
		withBackend(t, simd.Scalar, func() { checkRowsOrderExact(t, groupedElem) })
	})
	for _, be := range []string{simd.AVX2, simd.AVX512} {
		t.Run(be, func(t *testing.T) {
			requireBackend(t, be)
			withBackend(t, be, func() { checkRowsOrderExact(t, fmaElem) })
		})
	}
}

// TestDgemmRowsTCrossBackend bounds every backend against the plain dot
// product (Ddot), as TestDgemmKernelsMatchNaive does for Dgemm.
func TestDgemmRowsTCrossBackend(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(22))
				for _, c := range rowsCases() {
					tm, tt, src, dst0 := rowsOperands(rng, c)
					got := append([]float64(nil), dst0...)
					DgemmRowsT(tt, src, got, c.n, c.rows, c.ss, c.ds)
					want := append([]float64(nil), dst0...)
					slabRef(c, tm, src, want, Ddot)
					for i := range want {
						if diff := math.Abs(got[i] - want[i]); diff/(math.Abs(want[i])+1) > 1e-12 {
							t.Fatalf("case %+v: element %d = %g, want %g", c, i, got[i], want[i])
						}
					}
				}
			})
		})
	}
}

// TestDgemmRowsTCountsOneGemmPerSlab pins the accounting the solvers'
// flop cross-check relies on: one call and 2*K*K*vectors flops per slab,
// however many rows it has, and one mat-vec per DgemvT.
func TestDgemmRowsTCountsOneGemmPerSlab(t *testing.T) {
	EnableCounters(true)
	defer EnableCounters(false)
	ResetCounters()
	defer ResetCounters()
	c := rowsCase{12, 8, 5, Strides{12, 12 * 8}, Strides{24, 24 * 16}}
	_, tt, src, dst := rowsOperands(rand.New(rand.NewSource(23)), c)
	DgemmRowsT(tt, src, dst, c.n, c.rows, c.ss, c.ds)
	DgemvT(tt, src[:12], dst[:12])
	got := ReadCounters()
	want := Counters{GemmCalls: 1, GemmFlops: DgemmFlops(12, 12, 40), GemvCalls: 1, GemvFlops: DgemvFlops(12, 12)}
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
}

// TestDgemmRowsTRejectsBadSlabs: shape errors are bugs in the caller and
// panic before any element is touched, whichever side they are on; empty
// slabs are no-ops. So do slabs whose destination rows overlap or whose
// source overlaps the destination: a body may read a whole group of boxes
// before it stores any, across row ends.
func TestDgemmRowsTRejectsBadSlabs(t *testing.T) {
	tt := NewMatrix(4, 4)
	src, dst := make([]float64, 16), make([]float64, 16)
	buf := make([]float64, 32)
	dense, wide := Strides{Box: 4}, Strides{Box: 4, Row: 8}
	DgemmRowsT(tt, src, dst, 0, 1, dense, dense)
	DgemmRowsT(tt, src, dst, 1, 0, dense, dense)
	// Source rows may overlap: the source is only read.
	DgemmRowsT(tt, src, dst, 1, 2, Strides{4, 0}, wide)
	// Disjoint halves of one buffer are not an overlap.
	DgemmRowsT(tt, buf[:16], buf[16:], 4, 1, dense, dense)
	const (
		srcVecs, dstVecs = "source vectors overlap", "destination vectors overlap"
		srcLong, dstLong = "slab exceeds source", "slab exceeds destination"
		dstRows, aliased = "destination rows overlap", "source overlaps destination"
	)
	for name, c := range map[string]struct {
		want string
		f    func()
	}{
		"src overlap":         {srcVecs, func() { DgemmRowsT(tt, src, dst, 2, 1, Strides{Box: 3}, dense) }},
		"dst overlap":         {dstVecs, func() { DgemmRowsT(tt, src, dst, 2, 1, dense, Strides{Box: 3}) }},
		"src row < 0":         {srcVecs, func() { DgemmRowsT(tt, src, dst, 1, 2, Strides{4, -4}, wide) }},
		"dst row < 0":         {dstVecs, func() { DgemmRowsT(tt, src, dst, 1, 2, wide, Strides{4, -4}) }},
		"short src":           {srcLong, func() { DgemmRowsT(tt, src[:15], dst, 4, 1, dense, dense) }},
		"short dst":           {dstLong, func() { DgemmRowsT(tt, src, dst[:15], 2, 2, wide, wide) }},
		"src too wide":        {srcLong, func() { DgemmRowsT(tt, src, dst, 3, 1, Strides{Box: 8}, dense) }},
		"dst too wide":        {dstLong, func() { DgemmRowsT(tt, src, dst, 3, 1, dense, Strides{Box: 8}) }},
		"src rows long":       {srcLong, func() { DgemmRowsT(tt, src, dst, 1, 3, Strides{4, 8}, dense) }},
		"nonsquare":           {"square", func() { DgemmRowsT(NewMatrix(4, 3), src, dst, 1, 1, dense, dense) }},
		"gemv len":            {"shape mismatch", func() { DgemvT(tt, src[:3], dst[:4]) }},
		"dst row 0":           {dstRows, func() { DgemmRowsT(tt, src, dst, 1, 2, wide, Strides{4, 0}) }},
		"dst rows interleave": {dstRows, func() { DgemmRowsT(tt, buf[:16], buf[16:], 2, 2, wide, Strides{8, 4}) }},
		"aliased":             {aliased, func() { DgemmRowsT(tt, buf, buf, 1, 1, dense, dense) }},
		"src into dst":        {aliased, func() { DgemmRowsT(tt, buf[:16], buf[12:], 4, 1, dense, dense) }},
		"dst into src":        {aliased, func() { DgemmRowsT(tt, buf[12:], buf[:16], 4, 1, dense, dense) }},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, c.want) {
					t.Errorf("%s: panic %q, want one about %q", name, r, c.want)
				}
			}()
			c.f()
		}()
	}
}

// t2Planes are the planes of a level-4 T2 sweep (16 boxes per axis, both
// sides two boxes apart): a whole 8 x 8 octant plane and the clipped planes
// of the interactive offsets.
var t2Planes = []struct {
	name string
	c    rowsCase
}{
	{"K12plane8x8", rowsCase{12, 8, 8, Strides{24, 384}, Strides{24, 384}}},
	{"K12plane7x7", rowsCase{12, 7, 7, Strides{24, 384}, Strides{24, 384}}},
	{"K12plane6x6", rowsCase{12, 6, 6, Strides{24, 384}, Strides{24, 384}}},
	{"K12plane5x7", rowsCase{12, 5, 7, Strides{24, 384}, Strides{24, 384}}},
}

func BenchmarkDgemmRowsT(b *testing.B) {
	for _, sh := range []struct {
		name string
		c    rowsCase
	}{
		{"K12x8x8", rowsCase{12, 8, 8, Strides{24, 24 * 16}, Strides{24, 24 * 16}}},
		{"K12x4x4", rowsCase{12, 4, 4, Strides{24, 24 * 8}, Strides{24, 24 * 8}}},
		{"K12x8x8up", rowsCase{12, 8, 8, Strides{12, 12 * 8}, Strides{24, 24 * 16}}},
		{"K72x8x8", rowsCase{72, 8, 8, Strides{144, 144 * 16}, Strides{144, 144 * 16}}},
		t2Planes[0], t2Planes[1], t2Planes[2], t2Planes[3],
	} {
		for _, be := range simd.Supported() {
			b.Run(sh.name+"/"+be, func(b *testing.B) {
				withBackend(b, be, func() {
					c := sh.c
					_, tt, src, dst := rowsOperands(rand.New(rand.NewSource(24)), c)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						DgemmRowsT(tt, src, dst, c.n, c.rows, c.ss, c.ds)
					}
					flops := float64(DgemmFlops(c.k, c.k, c.n*c.rows)) * float64(b.N)
					b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "Gflop/s")
				})
			})
		}
	}
}
