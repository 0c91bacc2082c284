package blas

import (
	"math/rand"
	"testing"
)

func TestMultiGemmMatchesSequentialGemms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randMatrix(rng, 12, 12)
	const inst = 9
	bs := make([]Matrix, inst)
	cs := make([]Matrix, inst)
	want := make([]Matrix, inst)
	for i := range bs {
		bs[i] = randMatrix(rng, 12, 8)
		cs[i] = NewMatrix(12, 8)
		want[i] = NewMatrix(12, 8)
		naiveGemm(a, bs[i], want[i])
	}
	MultiGemm(a, bs, cs)
	for i := range cs {
		if !matricesClose(cs[i], want[i], 1e-10) {
			t.Errorf("instance %d mismatch", i)
		}
	}
}

func TestParallelMultiGemmMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randMatrix(rng, 24, 24)
	const inst = 33
	bs := make([]Matrix, inst)
	cs := make([]Matrix, inst)
	want := make([]Matrix, inst)
	for i := range bs {
		bs[i] = randMatrix(rng, 24, 5)
		cs[i] = NewMatrix(24, 5)
		want[i] = NewMatrix(24, 5)
	}
	MultiGemm(a, bs, want)
	ParallelMultiGemm(a, bs, cs)
	for i := range cs {
		if !matricesClose(cs[i], want[i], 1e-12) {
			t.Errorf("instance %d mismatch", i)
		}
	}
}

func TestMultiGemmMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MultiGemm(NewMatrix(2, 2), make([]Matrix, 2), make([]Matrix, 3))
}

func TestParallelMultiGemmMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ParallelMultiGemm(NewMatrix(2, 2), make([]Matrix, 1), make([]Matrix, 2))
}

func BenchmarkDgemm12(b *testing.B) { benchGemm(b, 12, 12, 512) }
func BenchmarkDgemm72(b *testing.B) { benchGemm(b, 72, 72, 512) }

func benchGemm(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, m, k)
	bm := randMatrix(rng, k, n)
	c := NewMatrix(m, n)
	b.SetBytes(8 * int64(m*k+k*n+m*n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(a, bm, c)
	}
	flops := float64(DgemmFlops(m, k, n)) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e6, "Mflops/s")
}
