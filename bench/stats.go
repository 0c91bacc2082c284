package main

import (
	"math"
	"sort"
	"time"

	"nbody"
)

// The statistics below are the benchmark's own: it imports none from the
// repository, so an edit to the program's helpers cannot move a number.

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the p-th percentile (nearest rank) of sorted samples,
// 0 for none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(len(sorted), p) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// nearestRank is how many of n sorted samples lie at or below the p-th
// percentile: ceil(n*p/100), computed so that binary fractions such as
// 99.9/100 do not push an exact product over the next integer.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(float64(n)*p/100 - 1e-9))
}

// median sorts a copy of xs and returns its 50th percentile.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailSamples is how many samples must lie beyond a percentile before the
// benchmark reports it.
const tailSamples = 10

// tailPercentiles are the candidates of the percentile rule, ascending.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest candidate percentile that still has
// at least tailSamples samples beyond it among n, or 0 when even the median
// has not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= tailSamples {
			best = p
		}
	}
	return best
}

// durationsMS converts samples to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// hashFloats is an order-sensitive 64-bit hash of the exact bit patterns of
// xs: two solves agree bitwise exactly when their hashes do (up to 2^-64).
func hashFloats(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * 1099511628211
		h ^= h >> 29
	}
	return h
}

// errStats is the accuracy of a potential field against direct summation.
type errStats struct {
	// Worst is max|phi - ref| / mean|ref| (the repository's RelError.Worst).
	Worst float64
	// RMS is rms(phi - ref) / mean|ref|: an average over the sample, so it
	// moves far less than Worst when the seed changes the particle set.
	RMS float64
}

// relError checks phi against direct summation at `samples` evenly spaced
// particles of sys (all of them when sys is smaller).
func relError(sys *nbody.System, phi []float64, samples int) errStats {
	n := sys.Len()
	if samples > n {
		samples = n
	}
	if samples == 0 || len(phi) != n {
		return errStats{Worst: math.Inf(1), RMS: math.Inf(1)}
	}
	var worst, sq, mean float64
	for k := 0; k < samples; k++ {
		i := k * n / samples
		ref := directPotentialAt(sys, i)
		d := math.Abs(phi[i] - ref)
		worst = math.Max(worst, d)
		sq += d * d
		mean += math.Abs(ref)
	}
	mean /= float64(samples)
	if !(mean > 0) {
		return errStats{Worst: math.Inf(1), RMS: math.Inf(1)}
	}
	return errStats{Worst: worst / mean, RMS: math.Sqrt(sq/float64(samples)) / mean}
}

// probeSeed makes the fixed system rel_err is measured on. The inputs of a
// workload follow -seed and their accuracy is held against the ceiling, but
// the error of a few hundred particles moves by tens of percent with the
// particle set, which would drown a real loss of accuracy. The solver is
// deterministic, so its error on one fixed system of the workload's shape
// is an exact number: it changes only when the numerics do.
const probeSeed = 1996

// probeError is the rel_err metric: the RMS error of phi on the probe
// system, over eight times the particles the ceiling check looks at.
func probeError(probe *nbody.System, phi []float64, sz sizes) float64 {
	return relError(probe, phi, 8*sz.errSamples).RMS
}

// directPotentialAt is the O(N) reference: sum over j != i of q_j / r_ij.
func directPotentialAt(sys *nbody.System, i int) float64 {
	pi := sys.Positions[i]
	var s float64
	for j, pj := range sys.Positions {
		if j == i {
			continue
		}
		dx, dy, dz := pi.X-pj.X, pi.Y-pj.Y, pi.Z-pj.Z
		if r2 := dx*dx + dy*dy + dz*dz; r2 > 0 {
			s += sys.Charges[j] / math.Sqrt(r2)
		}
	}
	return s
}
