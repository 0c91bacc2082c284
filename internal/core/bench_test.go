package core

import (
	"fmt"
	"math/rand"
	"testing"

	"nbody/internal/geom"
	"nbody/internal/sched"
	"nbody/internal/sphere"
	"nbody/internal/tree"
)

func BenchmarkEvalOuterK12(b *testing.B) { benchEvalOuter(b, sphere.Icosahedron(), 3) }
func BenchmarkEvalOuterK72(b *testing.B) { benchEvalOuter(b, sphere.Product(6, 12), 6) }

func benchEvalOuter(b *testing.B, rule *sphere.Rule, m int) {
	rng := rand.New(rand.NewSource(1))
	g := make([]float64, rule.K())
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	x := geom.Vec3{X: 3.1, Y: -2.2, Z: 1.7}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += EvalOuter(rule, m, geom.Vec3{}, 1.1, g, x)
	}
	_ = sink
}

// leafBox is an n-particle leaf box of side 1 at the origin with a K = 12
// sphere of the solver's radius around it and random values on it: the
// shape the two leaf kernels run once per box.
func leafBox(n int) (rule *sphere.Rule, a float64, g, xs, ys, zs, qs []float64) {
	rng := rand.New(rand.NewSource(2))
	rule = sphere.Icosahedron()
	g = make([]float64, rule.K())
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	xs, ys, zs, qs = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range xs {
		xs[j], ys[j], zs[j], qs[j] = rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()
	}
	return rule, Sqrt3Over2, g, xs, ys, zs, qs
}

// leafBoxSizes are the leaf benchmarks' box sizes: 8 particles, the mean
// box of the 32768-particle depth-4 solve, where a vector body's last
// group and its per-call cost weigh most, and 64.
var leafBoxSizes = []int{8, 64}

func BenchmarkLeafOuterK12(b *testing.B) {
	for _, n := range leafBoxSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rule, a, g, xs, ys, zs, qs := leafBox(n)
			for i := 0; i < b.N; i++ {
				LeafOuter(rule, geom.Vec3{}, a, xs, ys, zs, qs, g)
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "particles/s")
		})
	}
}

func BenchmarkEvalLocalK12(b *testing.B) {
	for _, n := range leafBoxSizes {
		rule, a, g, xs, ys, zs, _ := leafBox(n)
		phi, gx, gy, gz := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for _, force := range []bool{false, true} {
			name, fx := "potential", []float64(nil)
			if force {
				name, fx = "force", gx
			}
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					EvalLocal(rule, 3, geom.Vec3{}, a, g, xs, ys, zs, phi, fx, gy, gz)
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "particles/s")
			})
		}
	}
}

func BenchmarkTranslationSetK12(b *testing.B) {
	cfg, _ := Config{Degree: 5, Depth: 3}.Normalized()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewTranslationSet(cfg)
	}
}

// BenchmarkNewSolverK12Depth4 measures construction: the translation
// matrices, the expansion grids and every level's sweeps. Every cold plan and
// every benchmark workload's setup pays it.
func BenchmarkNewSolverK12Depth4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveK12Depth4 measures the steady-state solve: a reused Solver,
// a reused output buffer, and one warm-up solve outside the timed region —
// the time-stepping regime of simulate.go, which the reuse contract makes
// allocation-free.
func BenchmarkSolveK12Depth4(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pos, q := uniformParticles(rng, 32768)
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 4})
	if err != nil {
		b.Fatal(err)
	}
	phi := make([]float64, len(pos))
	if err := s.Solve(nil, pos, q, phi, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Solve(nil, pos, q, phi, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(32768*b.N)/b.Elapsed().Seconds(), "particles/s")
}

// BenchmarkNearFieldK12Depth4 times the near-field sweep alone at
// BenchmarkSolveK12Depth4's shape (the bench's solve_uniform): 25 rounds of
// row-pair jobs on a prepared Solver, under a hold as in a solve, so the
// pool's workers take each round as a solve's do. Mpairs/s counts each pair
// once.
func BenchmarkNearFieldK12Depth4(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pos, q := uniformParticles(rng, 32768)
	s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.prepare(pos, q); err != nil {
		b.Fatal(err)
	}
	sched.Hold()
	defer sched.Release()
	if err := nearField(s); err != nil {
		b.Fatal(err)
	}
	pairs := s.Stats().NearPairs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nearField(s)
	}
	b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkAccelPlummerDepth3 measures the steady-state force solve on a
// clustered set, the regime of a leapfrog step (the bench's step_plummer
// shape): the near field is almost all of it, and a handful of central
// boxes hold almost every particle.
func BenchmarkAccelPlummerDepth3(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pos, q := plummerParticles(rng, 8192)
	s, err := NewSolver(plummerBox(), Config{Degree: 5, Depth: 3})
	if err != nil {
		b.Fatal(err)
	}
	phi := make([]float64, len(pos))
	acc := make([]geom.Vec3, len(pos))
	if err := s.Solve(nil, pos, q, phi, acc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Solve(nil, pos, q, phi, acc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8192*b.N)/b.Elapsed().Seconds(), "particles/s")
}

func BenchmarkSolveSupernodesK32Depth4(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pos, q := uniformParticles(rng, 32768)
	s, err := NewSolver(unitBox(), Config{Degree: 7, Depth: 4, Supernodes: true})
	if err != nil {
		b.Fatal(err)
	}
	phi := make([]float64, len(pos))
	if err := s.Solve(nil, pos, q, phi, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Solve(nil, pos, q, phi, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(32768*b.N)/b.Elapsed().Seconds(), "particles/s")
}

func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pos, _ := uniformParticles(rng, 100000)
	h, err := tree.NewHierarchy(unitBox(), 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPartition(h, pos)
	}
}
