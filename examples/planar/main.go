// Planar: the two-dimensional variant of Anderson's method — the paper
// stresses that the 2-D and 3-D codes are nearly identical. Cross-section
// of charged line sources (2-D Coulomb, phi = -sum q ln r): accuracy/time
// sweep over the number of circle integration points, with and without the
// 2-D supernode decomposition (75 -> 27 interactive translations).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"nbody"
	"nbody/internal/core2"
)

func main() {
	const n = 10000
	rng := rand.New(rand.NewSource(3))
	pos := make([]nbody.Vec2, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = nbody.Vec2{X: rng.Float64(), Y: rng.Float64()}
		if i%2 == 0 {
			q[i] = 1
		} else {
			q[i] = -1
		}
	}
	box := nbody.Box2D{Center: nbody.Vec2{X: 0.5, Y: 0.5}, Side: 1.0000001}

	start := time.Now()
	exact := nbody.DirectPotentials2D(pos, q)
	fmt.Printf("%-28s %10v   (reference)\n", "direct O(N^2)", time.Since(start).Round(time.Millisecond))

	rmsRef := 0.0
	for _, v := range exact {
		rmsRef += v * v
	}
	rmsRef = math.Sqrt(rmsRef / float64(n))

	for _, k := range []int{8, 16, 32} {
		solver, err := nbody.NewAnderson2D(box, nbody.Options2D{K: k, Depth: 5})
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		phi, err := solver.Potentials(pos, q)
		if err != nil {
			log.Fatal(err)
		}
		var rms float64
		for i := range phi {
			rms += (phi[i] - exact[i]) * (phi[i] - exact[i])
		}
		rms = math.Sqrt(rms / float64(n))
		fmt.Printf("%-28s %10v   err=%.2e\n",
			fmt.Sprintf("anderson 2-D K=%d", k),
			time.Since(start).Round(time.Millisecond), rms/rmsRef)
	}

	// Supernodes: same accuracy band, ~2.8x fewer interactive translations.
	for _, sup := range []bool{false, true} {
		s, err := core2.NewSolver(box, core2.Config{K: 16, Depth: 5, Supernodes: sup})
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		phi := make([]float64, len(pos))
		if err := s.Solve(nil, pos, q, phi); err != nil {
			log.Fatal(err)
		}
		var rms float64
		for i := range phi {
			rms += (phi[i] - exact[i]) * (phi[i] - exact[i])
		}
		rms = math.Sqrt(rms / float64(n))
		fmt.Printf("%-28s %10v   err=%.2e\n",
			fmt.Sprintf("anderson 2-D supernodes=%v", sup),
			time.Since(start).Round(time.Millisecond), rms/rmsRef)
	}
}
