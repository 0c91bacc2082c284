package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nbody/internal/simd"
)

// withBackend runs f with the named backend active, restoring the previous
// backend afterwards. Tests iterating simd.Supported() get the full
// cross-backend matrix on capable hosts and degrade to scalar-only
// elsewhere (and under NBODY_BACKEND=scalar the matrix still activates
// avx2 where supported — SetBackend overrides the env default).
func withBackend(t testing.TB, name string, f func()) {
	t.Helper()
	prev := simd.Active()
	if err := simd.SetBackend(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := simd.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

// gemmShapes is the shape matrix every backend must pass: the paper's
// translation shapes, the generic kernel with k remainders, every column
// tail class (n mod 32/16/4 and 1..3 trailing columns), sub-unroll
// operands, and single-row/column edges.
var gemmShapes = [][3]int{
	{12, 12, 128}, // a 128-box block, K = 12 fast path
	{72, 72, 128}, // a 128-box block, K = 72 fast path
	{98, 98, 33},  // generic kernel with k % 4 remainder and masked tail
	{12, 12, 1},   // single masked column
	{12, 12, 2},
	{12, 12, 3},
	{12, 12, 4},
	{12, 12, 7},
	{12, 12, 19}, // 16-block + masked tail
	{12, 12, 31}, // 16 + 4x3 + tail
	{72, 72, 35}, // 32-block + tail
	{1, 12, 12},  // single row
	{4, 4, 4},
	{3, 5, 2},
	{5, 1, 7}, // k below the unroll width
	{2, 2, 2},
	{1, 1, 1},
}

// TestDgemmKernelsMatchNaive is the cross-backend property test guarding
// every Dgemm dispatch path: on every supported backend, for the shape
// matrix plus random shapes, Dgemm must agree with the naive triple loop
// (naiveGemm, blas_test.go) to rounding error.
func TestDgemmKernelsMatchNaive(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(7))
				shapes := append([][3]int{}, gemmShapes...)
				for trial := 0; trial < 20; trial++ {
					shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(100), 1 + rng.Intn(40)})
				}
				for _, sh := range shapes {
					m, k, n := sh[0], sh[1], sh[2]
					a := randMatrix(rng, m, k)
					b := randMatrix(rng, k, n)
					cInit := randMatrix(rng, m, n)

					got := NewMatrix(m, n)
					copy(got.Data, cInit.Data)
					Dgemm(a, b, got)

					want := NewMatrix(m, n)
					copy(want.Data, cInit.Data)
					naiveGemm(a, b, want)

					for i := range want.Data {
						diff := math.Abs(got.Data[i] - want.Data[i])
						scale := math.Abs(want.Data[i]) + 1
						if diff/scale > 1e-12 {
							t.Fatalf("shape (%d,%d,%d): element %d = %g, want %g", m, k, n, i, got.Data[i], want.Data[i])
						}
					}
				}
			})
		})
	}
}

// TestDgemmEmptyOperands pins the degenerate shapes on every backend: an
// empty m/k/n leaves C untouched (and never dereferences empty slices).
func TestDgemmEmptyOperands(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				for _, sh := range [][3]int{{0, 5, 5}, {5, 0, 5}, {5, 5, 0}, {0, 0, 0}} {
					m, k, n := sh[0], sh[1], sh[2]
					a := NewMatrix(m, k)
					b := NewMatrix(k, n)
					c := NewMatrix(m, n)
					for i := range c.Data {
						c.Data[i] = 3.5
					}
					want := append([]float64(nil), c.Data...)
					Dgemm(a, b, c)
					for i := range c.Data {
						if c.Data[i] != want[i] {
							t.Fatalf("shape %v: Dgemm touched C", sh)
						}
					}
				}
			})
		})
	}
}

// groupedGemm is a direct transcription of the scalar backend's documented
// reduction order — k-terms grouped in fours, each group summed left to
// right, groups accumulated ascending, then a one-at-a-time remainder —
// with none of the kernel structure.
func groupedGemm(a, b, c Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c.At(i, j)
			kk := 0
			for ; kk+3 < k; kk += 4 {
				s += a.At(i, kk)*b.At(kk, j) + a.At(i, kk+1)*b.At(kk+1, j) +
					a.At(i, kk+2)*b.At(kk+2, j) + a.At(i, kk+3)*b.At(kk+3, j)
			}
			for ; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			c.Set(i, j, s)
		}
	}
}

// fmaGemm is a direct transcription of the avx2 backend's documented
// reduction order: one fused-multiply-add chain per element, ascending k.
func fmaGemm(a, b, c Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c.At(i, j)
			for kk := 0; kk < k; kk++ {
				s = math.FMA(a.At(i, kk), b.At(kk, j), s)
			}
			c.Set(i, j, s)
		}
	}
}

// orderShapes exercises every dispatch path of a backend pin: K = 12,
// K = 72, generic with and without k remainder, sub-unroll, and all column
// tail classes.
var orderShapes = [][3]int{
	{12, 12, 128}, {72, 72, 96}, {98, 98, 17}, {16, 24, 8}, {5, 3, 9},
	{12, 12, 33}, {72, 72, 7}, {9, 13, 3},
}

// checkOrderExact pins Dgemm's reduction order on the active backend
// against the reference transcription ref, bitwise.
func checkOrderExact(t *testing.T, ref func(a, b, c Matrix)) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	for _, sh := range orderShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		cInit := randMatrix(rng, m, n)

		got := NewMatrix(m, n)
		copy(got.Data, cInit.Data)
		Dgemm(a, b, got)
		want := NewMatrix(m, n)
		copy(want.Data, cInit.Data)
		ref(a, b, want)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape (%d,%d,%d): element %d = %g, want bitwise %g", m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestDgemmGroupedOrderExact pins the scalar backend to the grouped order.
func TestDgemmGroupedOrderExact(t *testing.T) {
	withBackend(t, simd.Scalar, func() { checkOrderExact(t, groupedGemm) })
}

// TestDgemmFMAOrderExact pins the avx2 backend to the FMA-chain order: the
// assembly must be bitwise equal to the math.FMA transcription in every
// lane, block width, and masked tail.
func TestDgemmFMAOrderExact(t *testing.T) {
	requireBackend(t, simd.AVX2)
	withBackend(t, simd.AVX2, func() { checkOrderExact(t, fmaGemm) })
}

// TestDgemvCrossBackend checks the mat-vec kernel DgemvT on every backend
// against the serial dot-product reference: at the 2-D solver's K = 8, 16
// and 32 (which no slab case of rows_test.go has), the icosahedral and
// product-rule K = 12 and 72, and odd K below and across the vector widths.
func TestDgemvCrossBackend(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(11))
				for _, k := range []int{8, 16, 32, 12, 72, 1, 3, 7, 17, 98} {
					a := randMatrix(rng, k, k)
					x := make([]float64, k)
					for i := range x {
						x[i] = rng.NormFloat64()
					}
					got := make([]float64, k)
					want := make([]float64, k)
					for i := range got {
						got[i] = rng.NormFloat64()
						want[i] = got[i]
					}
					DgemvT(transpose(a), x, got)
					for i := range want {
						want[i] += Ddot(a.Row(i), x)
					}
					for i := range want {
						diff := math.Abs(got[i] - want[i])
						if diff/(math.Abs(want[i])+1) > 1e-12 {
							t.Fatalf("K=%d: row %d = %g, want %g", k, i, got[i], want[i])
						}
					}
				}
			})
		})
	}
}

// TestDgemmDeterministicPerBackend runs the same product twice per backend
// and requires bitwise-identical results — the within-backend half of the
// reproducibility contract, for the kernels whose order has no closed-form
// reference.
func TestDgemmDeterministicPerBackend(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(12))
				for _, sh := range orderShapes {
					m, k, n := sh[0], sh[1], sh[2]
					a := randMatrix(rng, m, k)
					b := randMatrix(rng, k, n)
					c1 := NewMatrix(m, n)
					c2 := NewMatrix(m, n)
					Dgemm(a, b, c1)
					Dgemm(a, b, c2)
					for i := range c1.Data {
						if c1.Data[i] != c2.Data[i] {
							t.Fatalf("backend %s shape %v: nondeterministic element %d", be, sh, i)
						}
					}
				}
			})
		})
	}
}

// requireBackend skips the test when the backend is not supported on this
// host (scalar-only CI runners still run the rest of the suite).
func requireBackend(t *testing.T, name string) {
	t.Helper()
	for _, b := range simd.Supported() {
		if b == name {
			return
		}
	}
	t.Skipf("backend %s not supported on this host", name)
}

func benchDgemm(b *testing.B, m, k, n int) {
	for _, be := range simd.Supported() {
		b.Run(be, func(b *testing.B) {
			withBackend(b, be, func() {
				rng := rand.New(rand.NewSource(9))
				a := randMatrix(rng, m, k)
				bb := randMatrix(rng, k, n)
				c := NewMatrix(m, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Dgemm(a, bb, c)
				}
				flops := float64(DgemmFlops(m, k, n)) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e6, "Mflops/s")
			})
		})
	}
}

func BenchmarkDgemmK12x128(b *testing.B) { benchDgemm(b, 12, 12, 128) }
func BenchmarkDgemmK72x128(b *testing.B) { benchDgemm(b, 72, 72, 128) }
func BenchmarkDgemm256(b *testing.B)     { benchDgemm(b, 256, 256, 256) }

// BenchmarkDgemvT times the mat-vec kernel at the 2-D solver's K (8, 16,
// 32) and the 3-D solvers' per-box K = 12.
func BenchmarkDgemvT(b *testing.B) {
	for _, k := range []int{8, 12, 16, 32} {
		for _, be := range simd.Supported() {
			b.Run(fmt.Sprintf("K%d/%s", k, be), func(b *testing.B) {
				withBackend(b, be, func() {
					rng := rand.New(rand.NewSource(13))
					tt := randMatrix(rng, k, k)
					x := make([]float64, k)
					y := make([]float64, k)
					for i := range x {
						x[i] = rng.NormFloat64()
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						DgemvT(tt, x, y)
					}
					flops := float64(DgemvFlops(k, k)) * float64(b.N)
					b.ReportMetric(flops/b.Elapsed().Seconds()/1e6, "Mflops/s")
				})
			})
		}
	}
}
