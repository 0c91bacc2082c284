// Package sphere provides the quadrature machinery of Anderson's method:
// Legendre polynomials, Gauss-Legendre nodes and weights, integration rules
// on the unit sphere S^2 (spherical t-designs for small point counts and
// product Gauss-Legendre x trapezoidal rules for arbitrary order), and
// equally spaced rules on the unit circle for the 2-D variant.
//
// Anderson's outer/inner sphere approximations (Anderson, SIAM J. Sci.
// Comput. 1992; Hu & Johnsson SC'96 Section 2.4) represent a harmonic
// potential by its values at the K integration points of such a rule and
// evaluate it elsewhere through a discretized Poisson integral whose kernel
// is a truncated Legendre series. The accuracy of the method is set by the
// polynomial degree D the rule integrates exactly (the "integration order"
// of the paper's Table 2).
package sphere

import "math"

// LegendreP returns P_n(x), the Legendre polynomial of degree n, via the
// standard three-term recurrence. The recurrence is numerically stable for
// |x| <= 1, the only range Anderson's kernels use (x is a dot product of
// unit vectors).
func LegendreP(n int, x float64) float64 {
	if n == 0 {
		return 1
	}
	if n == 1 {
		return x
	}
	pm1, p := 1.0, x
	for k := 2; k <= n; k++ {
		pm1, p = p, (float64(2*k-1)*x*p-float64(k-1)*pm1)/float64(k)
	}
	return p
}

// LegendrePDeriv returns P_n(x) and its derivative P_n'(x). The derivative
// is needed for force (gradient) evaluation of inner approximations. At the
// endpoints x = ±1 the analytic limit P_n'(±1) = (±1)^(n+1) n(n+1)/2 is
// used, since the usual relation divides by 1-x^2.
func LegendrePDeriv(n int, x float64) (p, dp float64) {
	p = LegendreP(n, x)
	if n == 0 {
		return p, 0
	}
	if x == 1 || x == -1 {
		s := 1.0
		if x < 0 && n%2 == 0 {
			s = -1
		}
		return p, s * float64(n) * float64(n+1) / 2
	}
	pm1 := LegendreP(n-1, x)
	dp = float64(n) * (x*p - pm1) / (x*x - 1)
	return p, dp
}

// GaussLegendre returns the n nodes and weights of the Gauss-Legendre
// quadrature rule on [-1, 1], exact for polynomials of degree <= 2n-1.
// Nodes are the roots of P_n, found by Newton iteration from the Chebyshev
// initial guess; weights are 2 / ((1-x^2) P_n'(x)^2).
func GaussLegendre(n int) (nodes, weights []float64) {
	if n < 1 {
		panic("sphere: GaussLegendre needs n >= 1")
	}
	nodes = make([]float64, n)
	weights = make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		// Initial guess (Abramowitz & Stegun 22.16.6 flavor).
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var dp float64
		for iter := 0; iter < 100; iter++ {
			var p float64
			p, dp = LegendrePDeriv(n, x)
			dx := p / dp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		_, dp = LegendrePDeriv(n, x)
		w := 2 / ((1 - x*x) * dp * dp)
		nodes[i] = x
		weights[i] = w
		nodes[n-1-i] = -x
		weights[n-1-i] = w
	}
	if n%2 == 1 {
		// Force the middle node to exactly zero (it is, analytically).
		nodes[n/2] = 0
		_, dp := LegendrePDeriv(n, 0)
		weights[n/2] = 2 / (dp * dp)
	}
	return nodes, weights
}
