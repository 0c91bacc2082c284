package sphere

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLegendreLowDegrees(t *testing.T) {
	xs := []float64{-1, -0.7, -0.3, 0, 0.25, 0.5, 1}
	for _, x := range xs {
		cases := []struct {
			n    int
			want float64
		}{
			{0, 1},
			{1, x},
			{2, (3*x*x - 1) / 2},
			{3, (5*x*x*x - 3*x) / 2},
			{4, (35*x*x*x*x - 30*x*x + 3) / 8},
		}
		for _, c := range cases {
			if got := LegendreP(c.n, x); math.Abs(got-c.want) > 1e-14 {
				t.Errorf("P_%d(%g) = %g, want %g", c.n, x, got, c.want)
			}
		}
	}
}

func TestLegendreEndpointValues(t *testing.T) {
	for n := 0; n <= 20; n++ {
		if got := LegendreP(n, 1); math.Abs(got-1) > 1e-13 {
			t.Errorf("P_%d(1) = %g, want 1", n, got)
		}
		want := 1.0
		if n%2 == 1 {
			want = -1
		}
		if got := LegendreP(n, -1); math.Abs(got-want) > 1e-13 {
			t.Errorf("P_%d(-1) = %g, want %g", n, got, want)
		}
	}
}

func TestLegendreBoundedOnInterval(t *testing.T) {
	f := func(xi int16, n uint8) bool {
		x := float64(xi) / 32768
		deg := int(n % 30)
		return math.Abs(LegendreP(deg, x)) <= 1+1e-12
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLegendreDerivative(t *testing.T) {
	// Compare against central differences away from endpoints.
	h := 1e-6
	for n := 1; n <= 12; n++ {
		for _, x := range []float64{-0.8, -0.2, 0.1, 0.6, 0.95} {
			_, dp := LegendrePDeriv(n, x)
			fd := (LegendreP(n, x+h) - LegendreP(n, x-h)) / (2 * h)
			if math.Abs(dp-fd) > 1e-6*(1+math.Abs(fd)) {
				t.Errorf("P'_%d(%g) = %g, FD %g", n, x, dp, fd)
			}
		}
	}
}

func TestLegendreDerivativeEndpoints(t *testing.T) {
	for n := 1; n <= 10; n++ {
		want := float64(n) * float64(n+1) / 2
		if _, dp := LegendrePDeriv(n, 1); math.Abs(dp-want) > 1e-12 {
			t.Errorf("P'_%d(1) = %g, want %g", n, dp, want)
		}
		wantNeg := want
		if n%2 == 0 {
			wantNeg = -want
		}
		if _, dp := LegendrePDeriv(n, -1); math.Abs(dp-wantNeg) > 1e-12 {
			t.Errorf("P'_%d(-1) = %g, want %g", n, dp, wantNeg)
		}
	}
}

func TestGaussLegendreSmall(t *testing.T) {
	// n=2: nodes ±1/sqrt(3), weights 1.
	nodes, w := GaussLegendre(2)
	if math.Abs(math.Abs(nodes[0])-1/math.Sqrt(3)) > 1e-14 {
		t.Errorf("n=2 nodes = %v", nodes)
	}
	if math.Abs(w[0]-1) > 1e-14 || math.Abs(w[1]-1) > 1e-14 {
		t.Errorf("n=2 weights = %v", w)
	}
	// n=3: nodes ±sqrt(3/5), 0; weights 5/9, 8/9.
	nodes, w = GaussLegendre(3)
	if nodes[1] != 0 {
		t.Errorf("n=3 middle node = %v, want exactly 0", nodes[1])
	}
	if math.Abs(w[1]-8.0/9) > 1e-14 {
		t.Errorf("n=3 middle weight = %v", w[1])
	}
}

func TestGaussLegendreExactness(t *testing.T) {
	// The n-point rule integrates x^k exactly for k <= 2n-1.
	for n := 1; n <= 12; n++ {
		nodes, w := GaussLegendre(n)
		for k := 0; k <= 2*n-1; k++ {
			var got float64
			for i := range nodes {
				got += w[i] * math.Pow(nodes[i], float64(k))
			}
			want := 0.0
			if k%2 == 0 {
				want = 2 / float64(k+1)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d: integral x^%d = %g, want %g", n, k, got, want)
			}
		}
	}
}

func TestGaussLegendreWeightsPositiveAndSum(t *testing.T) {
	for n := 1; n <= 32; n++ {
		nodes, w := GaussLegendre(n)
		var sum float64
		for i := range w {
			if w[i] <= 0 {
				t.Fatalf("n=%d: nonpositive weight %g", n, w[i])
			}
			sum += w[i]
			if math.Abs(nodes[i]) >= 1 {
				t.Fatalf("n=%d: node %g outside (-1,1)", n, nodes[i])
			}
		}
		if math.Abs(sum-2) > 1e-12 {
			t.Errorf("n=%d: weight sum = %g, want 2", n, sum)
		}
	}
}

func TestGaussLegendreBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GaussLegendre(0) should panic")
		}
	}()
	GaussLegendre(0)
}
