package kernels

import (
	"math"
	"math/rand"
	"testing"

	"nbody/internal/geom"
	"nbody/internal/simd"
)

// The cross-backend suite for the dispatched near-field kernels: every
// backend must agree with the scalar loops to rounding error on random
// clouds (including source counts exercising the 0-3 scalar tail), must
// exclude coincident particles exactly, must never read past slice length
// (NaN poison planted in the spare capacity of every operand), and must be
// bitwise deterministic run to run.

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

// poisoned returns a slice of length n filled by fill, sitting at the
// front of a larger NaN-poisoned allocation: any vector load straying past
// len(s) drags NaN into an accumulator and fails the comparison tests.
func poisoned(n int, fill func(i int) float64) []float64 {
	buf := make([]float64, n+8)
	for i := range buf {
		buf[i] = math.NaN()
	}
	s := buf[:n]
	for i := range s {
		s[i] = fill(i)
	}
	return s
}

func poisonedVec3(rng *rand.Rand, n int) []geom.Vec3 {
	nan := math.NaN()
	buf := make([]geom.Vec3, n+4)
	for i := range buf {
		buf[i] = geom.Vec3{X: nan, Y: nan, Z: nan}
	}
	s := buf[:n]
	for i := range s {
		s[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	return s
}

// cloud builds one poisoned SoA particle set.
func cloud(rng *rand.Rand, n int) (xs, ys, zs, qs []float64) {
	norm := func(int) float64 { return rng.NormFloat64() }
	return poisoned(n, norm), poisoned(n, norm), poisoned(n, norm), poisoned(n, norm)
}

// sizes covers empty sets, the sub-width counts handled wholly by the
// scalar tail, exact vector multiples, and every tail remainder class.
var sizes = [][2]int{
	{0, 0}, {1, 0}, {0, 5}, {1, 1}, {3, 2}, {2, 3}, {5, 4}, {7, 5}, {1, 6}, {4, 7}, {8, 8},
	{13, 9}, {16, 12}, {20, 17}, {33, 30}, {40, 64},
}

// fusedSide is one side's outputs of the symmetric fused kernel: poisoned
// potential and field planes with arbitrary starting values.
type fusedSide struct{ phi, gx, gy, gz []float64 }

func newFusedSide(rng *rand.Rand, n int) fusedSide {
	phi, gx, gy, gz := cloud(rng, n)
	return fusedSide{phi, gx, gy, gz}
}

func (f fusedSide) clone() fusedSide {
	c := func(v []float64) []float64 { return append([]float64(nil), v...) }
	return fusedSide{c(f.phi), c(f.gx), c(f.gy), c(f.gz)}
}

// flat lays the four planes end to end for closeEnough.
func (f fusedSide) flat() []float64 {
	return append(append(append(append([]float64(nil), f.phi...), f.gx...), f.gy...), f.gz...)
}

func closeEnough(t *testing.T, kernel string, cnt, scnt int, got, want []float64) {
	t.Helper()
	for i := range want {
		diff := math.Abs(got[i] - want[i])
		if diff/(math.Abs(want[i])+1) > 1e-12 || math.IsNaN(got[i]) != math.IsNaN(want[i]) {
			t.Fatalf("%s cnt=%d scnt=%d: element %d = %g, want %g", kernel, cnt, scnt, i, got[i], want[i])
		}
	}
}

// flatten lays a Vec3 slice out as x0 y0 z0 x1 ... for closeEnough.
func flatten(v []geom.Vec3) []float64 {
	out := make([]float64, 0, 3*len(v))
	for _, p := range v {
		out = append(out, p.X, p.Y, p.Z)
	}
	return out
}

func TestNearFieldSoACrossBackend(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(21))
				for _, sz := range sizes {
					cnt, scnt := sz[0], sz[1]
					xs, ys, zs, qs := cloud(rng, cnt)
					sx, sy, sz3, sq := cloud(rng, scnt)
					fill := func(int) float64 { return rng.NormFloat64() }

					// AccumulatePotentialSoA vs its scalar loop: targets in
					// lanes, so the same bits on every backend.
					phi := poisoned(cnt, fill)
					want := append([]float64(nil), phi...)
					AccumulatePotentialSoA(xs, ys, zs, phi, sx, sy, sz3, sq)
					accumPotSoAScalar(xs, ys, zs, want, sx, sy, sz3, sq)
					requireSameBits(t, cnt, scnt, "AccumulatePotentialSoA", phi, want)

					// PairwisePotentialSoA, both deposit sides.
					phi = poisoned(cnt, fill)
					sphi := poisoned(scnt, fill)
					wphi := append([]float64(nil), phi...)
					wsphi := append([]float64(nil), sphi...)
					PairwisePotentialSoA(xs, ys, zs, qs, phi, sx, sy, sz3, sq, sphi)
					pairPotSoAScalar(xs, ys, zs, qs, wphi, sx, sy, sz3, sq, wsphi)
					closeEnough(t, "PairwisePotentialSoA phi", cnt, scnt, phi, wphi)
					closeEnough(t, "PairwisePotentialSoA sphi", cnt, scnt, sphi, wsphi)

					// PairwiseFusedSoA against its scalar loop (the independent
					// reference is internal/direct's, oracle_test.go).
					a, b := newFusedSide(rng, cnt), newFusedSide(rng, scnt)
					wa, wb := a.clone(), b.clone()
					PairwiseFusedSoA(xs, ys, zs, qs, a.phi, a.gx, a.gy, a.gz, sx, sy, sz3, sq, b.phi, b.gx, b.gy, b.gz)
					pairFusedSoAScalar(xs, ys, zs, qs, wa.phi, wa.gx, wa.gy, wa.gz, sx, sy, sz3, sq, wb.phi, wb.gx, wb.gy, wb.gz)
					closeEnough(t, "PairwiseFusedSoA target", cnt, scnt, a.flat(), wa.flat())
					closeEnough(t, "PairwiseFusedSoA source", cnt, scnt, b.flat(), wb.flat())
				}
			})
		})
	}
}

// TestNearFieldAoSCrossBackend covers the one AoS kernel left: AccumulateForce,
// which only the frozen bench probe calls.
func TestNearFieldAoSCrossBackend(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(22))
				for _, sz := range sizes {
					cnt, scnt := sz[0], sz[1]
					posA := poisonedVec3(rng, cnt)
					posB := poisonedVec3(rng, scnt)
					qB := poisoned(scnt, func(int) float64 { return rng.NormFloat64() })
					acc := poisonedVec3(rng, cnt)
					wacc := append([]geom.Vec3(nil), acc...)
					AccumulateForce(posA, acc, posB, qB)
					accumulateForceScalar(posA, wacc, posB, qB)
					closeEnough(t, "AccumulateForce", cnt, scnt, flatten(acc), flatten(wacc))
				}
			})
		})
	}
}

// TestNearFieldCoincidentExclusion pins the r == 0 guard on every backend:
// a source exactly coincident with a target contributes exactly zero — not
// Inf, not NaN, not a rounded residue — in every lane position of the
// vector width.
func TestNearFieldCoincidentExclusion(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(23))
				for lane := 0; lane < 8; lane++ {
					const scnt = 8
					sx, sy, sz, sq := cloud(rng, scnt)
					// One target coincident with source `lane`, plus one clean target.
					xs := []float64{sx[lane], 0.25}
					ys := []float64{sy[lane], 0.5}
					zs := []float64{sz[lane], 0.75}
					qs := []float64{1.5, -2}

					var wantPhi [2]float64
					for i := 0; i < 2; i++ {
						for j := 0; j < scnt; j++ {
							dx, dy, dz := xs[i]-sx[j], ys[i]-sy[j], zs[i]-sz[j]
							if r2 := dx*dx + dy*dy + dz*dz; r2 > 0 {
								wantPhi[i] += sq[j] / math.Sqrt(r2)
							}
						}
					}

					phi := make([]float64, 2)
					AccumulatePotentialSoA(xs, ys, zs, phi, sx, sy, sz, sq)
					for i := range phi {
						if math.IsInf(phi[i], 0) || math.IsNaN(phi[i]) {
							t.Fatalf("lane %d: coincident source leaked into phi[%d] = %v", lane, i, phi[i])
						}
						if math.Abs(phi[i]-wantPhi[i]) > 1e-12*(math.Abs(wantPhi[i])+1) {
							t.Fatalf("lane %d: phi[%d] = %g, want %g", lane, i, phi[i], wantPhi[i])
						}
					}

					sphi := make([]float64, scnt)
					phi3 := make([]float64, 2)
					PairwisePotentialSoA(xs, ys, zs, qs, phi3, sx, sy, sz, sq, sphi)
					posA := []geom.Vec3{{X: xs[0], Y: ys[0], Z: zs[0]}, {X: xs[1], Y: ys[1], Z: zs[1]}}
					posB := make([]geom.Vec3, scnt)
					for j := range posB {
						posB[j] = geom.Vec3{X: sx[j], Y: sy[j], Z: sz[j]}
					}
					acc := make([]geom.Vec3, 2)
					AccumulateForce(posA, acc, posB, sq)

					// The symmetric fused kernel: a zero charge on the dead lane
					// must not turn its Inf into NaN (the mask lands on inv,
					// before any multiply). That the coincident pair drops out
					// of both sides exactly is checked against internal/direct
					// in oracle_test.go.
					qz := append([]float64(nil), sq...)
					qz[lane] = 0
					ft := fusedSide{make([]float64, 2), make([]float64, 2), make([]float64, 2), make([]float64, 2)}
					fs := fusedSide{make([]float64, scnt), make([]float64, scnt), make([]float64, scnt), make([]float64, scnt)}
					PairwiseFusedSoA(xs, ys, zs, qs, ft.phi, ft.gx, ft.gy, ft.gz, sx, sy, sz, qz, fs.phi, fs.gx, fs.gy, fs.gz)

					for _, v := range [][]float64{phi3, sphi, flatten(acc), ft.flat(), fs.flat()} {
						for i, x := range v {
							if math.IsInf(x, 0) || math.IsNaN(x) {
								t.Fatalf("lane %d: coincident source leaked Inf/NaN at %d: %v", lane, i, x)
							}
						}
					}
				}
			})
		})
	}
}

// vectorOrder is a vector backend's pair-kernel layout as the order pins
// transcribe it (dispatch.go): sources in groups of width, lane l holding
// j ≡ l (mod width) from the call's first source, the target's lanes
// collapsed by hsum. The last partial group runs in the lanes under a mask
// (masked) or through the scalar body. inv is the backend's per-pair
// 1/sqrt(r2), +0 on a dead lane. The zero value is the scalar backend.
type vectorOrder struct {
	width  int
	masked bool
	inv    func(r2 float64) float64
	hsum   func(l []float64) float64
}

func orderOf(be string) vectorOrder {
	switch be {
	case simd.AVX2:
		return vectorOrder{4, false, invDivide, func(l []float64) float64 { return (l[0] + l[2]) + (l[1] + l[3]) }}
	case simd.AVX512:
		return vectorOrder{8, true, invNewton, func(l []float64) float64 {
			return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
		}}
	}
	return vectorOrder{}
}

// lanes is how many leading sources of scnt run in the vector lanes.
func (o vectorOrder) lanes(scnt int) int {
	switch {
	case o.width == 0:
		return 0
	case o.masked:
		return scnt
	}
	return scnt &^ (o.width - 1)
}

// invDivide is the avx2 inverse: square root, then divide, r2 == 0 masked.
func invDivide(r2 float64) float64 {
	if r2 == 0 {
		return 0
	}
	return 1 / math.Sqrt(r2)
}

// invNewton is the avx512 inverse step for step: the host's own VRSQRT14PD
// seed, then twice y += y*(1/2 - (h*y)*y) with h = r2/2, ±0 and +Inf
// masked. The seed is the one input that is not IEEE arithmetic, so the
// avx512 pins hold bitwise on the CPU that runs them; across CPUs avx512
// results agree to the cross-backend bound, as backends do with each other.
func invNewton(r2 float64) float64 {
	if r2 == 0 || math.IsInf(r2, 1) {
		return 0
	}
	y, h := rsqrt14(r2), float64(0.5*r2)
	for range 2 {
		y = math.FMA(y, math.FMA(-float64(h*y), y, 0.5), y)
	}
	return y
}

// pairPotOrder transcribes PairwisePotentialSoA's documented reduction order
// for one backend: in the lanes both deposits fuse (acc += sq*inv,
// sphi += qi*inv); the scalar body, or tail, rounds every operation and adds
// its own sum to the target after the lanes'.
func pairPotOrder(be string, xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi []float64) {
	o := orderOf(be)
	vec := o.lanes(len(sx))
	for i := range xs {
		if vec > 0 {
			acc := make([]float64, o.width)
			for j := 0; j < vec; j++ {
				dx, dy, dz := xs[i]-sx[j], ys[i]-sy[j], zs[i]-sz[j]
				inv := o.inv(math.FMA(dz, dz, math.FMA(dy, dy, float64(dx*dx))))
				acc[j%o.width] = math.FMA(sq[j], inv, acc[j%o.width])
				sphi[j] = math.FMA(qs[i], inv, sphi[j])
			}
			phi[i] += o.hsum(acc)
		}
		var acc float64
		for j := vec; j < len(sx); j++ {
			dx, dy, dz := xs[i]-sx[j], ys[i]-sy[j], zs[i]-sz[j]
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			if r2 == 0 {
				continue
			}
			inv := 1 / math.Sqrt(r2)
			acc += float64(sq[j] * inv)
			sphi[j] += float64(qs[i] * inv)
		}
		if vec < len(sx) {
			phi[i] += acc
		}
	}
}

// pairFusedOrder transcribes PairwiseFusedSoA's documented reduction order
// for one backend: in the lanes r2 and the six field updates fuse and the
// two potential terms are added unfused; the scalar body, or tail, rounds
// every operation and adds its own sums to the target after the lanes'.
func pairFusedOrder(be string, xs, ys, zs, qs []float64, a fusedSide, sx, sy, sz, sq []float64, b fusedSide) {
	o := orderOf(be)
	vec := o.lanes(len(sx))
	for i := range xs {
		if vec > 0 {
			p, fx, fy, fz := make([]float64, o.width), make([]float64, o.width), make([]float64, o.width), make([]float64, o.width)
			for j := 0; j < vec; j++ {
				l := j % o.width
				dx, dy, dz := sx[j]-xs[i], sy[j]-ys[i], sz[j]-zs[i]
				inv := o.inv(math.FMA(dz, dz, math.FMA(dy, dy, float64(dx*dx))))
				inv2 := float64(inv * inv)
				tj, ti := float64(sq[j]*inv), float64(qs[i]*inv)
				p[l] += tj
				w, v := float64(tj*inv2), float64(ti*inv2)
				fx[l] = math.FMA(w, dx, fx[l])
				fy[l] = math.FMA(w, dy, fy[l])
				fz[l] = math.FMA(w, dz, fz[l])
				b.phi[j] += ti
				b.gx[j] = math.FMA(-v, dx, b.gx[j])
				b.gy[j] = math.FMA(-v, dy, b.gy[j])
				b.gz[j] = math.FMA(-v, dz, b.gz[j])
			}
			a.phi[i] += o.hsum(p)
			a.gx[i] += o.hsum(fx)
			a.gy[i] += o.hsum(fy)
			a.gz[i] += o.hsum(fz)
		}
		var p, fx, fy, fz float64
		for j := vec; j < len(sx); j++ {
			dx, dy, dz := sx[j]-xs[i], sy[j]-ys[i], sz[j]-zs[i]
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			if r2 == 0 {
				continue
			}
			inv := 1 / math.Sqrt(r2)
			inv2 := float64(inv * inv)
			tj, ti := float64(sq[j]*inv), float64(qs[i]*inv)
			p += tj
			w, v := float64(tj*inv2), float64(ti*inv2)
			fx += float64(w * dx)
			fy += float64(w * dy)
			fz += float64(w * dz)
			b.phi[j] += ti
			b.gx[j] -= float64(v * dx)
			b.gy[j] -= float64(v * dy)
			b.gz[j] -= float64(v * dz)
		}
		if vec < len(sx) {
			a.phi[i] += p
			a.gx[i] += fx
			a.gy[i] += fy
			a.gz[i] += fz
		}
	}
}

// orderCounts are the order pins' source counts: below, at and above both
// vector widths, with every tail length of the avx2 scalar tail and of the
// avx512 masked group.
var orderCounts = []int{1, 3, 4, 5, 7, 8, 9, 64, 67}

// orderTargets are the order pins' target counts: a lone target, and pairs
// of targets with and without an odd last one (the avx512 fused body takes
// targets two at a time).
var orderTargets = []int{1, 2, 3, 9}

// orderCase draws a pin's two particle sets, cnt targets against scnt
// sources, with one dead lane among live ones: a source coincident with a
// target.
func orderCase(rng *rand.Rand, cnt, scnt int) (xs, ys, zs, qs, sx, sy, sz, sq []float64) {
	xs, ys, zs, qs = cloud(rng, cnt)
	sx, sy, sz, sq = cloud(rng, scnt)
	sx[scnt/2], sy[scnt/2], sz[scnt/2] = xs[cnt/2], ys[cnt/2], zs[cnt/2]
	return
}

func requireSameBits(t *testing.T, cnt, scnt int, side string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cnt=%d scnt=%d %s element %d: got %v, the documented order gives %v", cnt, scnt, side, i, got[i], want[i])
		}
	}
}

// TestPairwisePotentialOrderExact pins the potential pair kernel's reduction
// order on every backend, bit for bit and on both sides.
func TestPairwisePotentialOrderExact(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(30))
				fill := func(int) float64 { return rng.NormFloat64() }
				for _, cnt := range orderTargets {
					for _, scnt := range orderCounts {
						xs, ys, zs, qs, sx, sy, sz, sq := orderCase(rng, cnt, scnt)
						phi, sphi := poisoned(cnt, fill), poisoned(scnt, fill)
						wphi, wsphi := append([]float64(nil), phi...), append([]float64(nil), sphi...)
						PairwisePotentialSoA(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi)
						pairPotOrder(be, xs, ys, zs, qs, wphi, sx, sy, sz, sq, wsphi)
						requireSameBits(t, cnt, scnt, "target", phi, wphi)
						requireSameBits(t, cnt, scnt, "source", sphi, wsphi)
					}
				}
			})
		})
	}
}

// TestPairwiseFusedOrderExact pins the fused pair kernel's reduction order on
// every backend, bit for bit and on both sides.
func TestPairwiseFusedOrderExact(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(28))
				for _, cnt := range orderTargets {
					for _, scnt := range orderCounts {
						xs, ys, zs, qs, sx, sy, sz, sq := orderCase(rng, cnt, scnt)
						a, b := newFusedSide(rng, cnt), newFusedSide(rng, scnt)
						wa, wb := a.clone(), b.clone()
						PairwiseFusedSoA(xs, ys, zs, qs, a.phi, a.gx, a.gy, a.gz, sx, sy, sz, sq, b.phi, b.gx, b.gy, b.gz)
						pairFusedOrder(be, xs, ys, zs, qs, wa, sx, sy, sz, sq, wb)
						requireSameBits(t, cnt, scnt, "target", a.flat(), wa.flat())
						requireSameBits(t, cnt, scnt, "source", b.flat(), wb.flat())
					}
				}
			})
		})
	}
}

// pairOutputs runs both pair kernels under backend be on zeroed outputs and
// returns what the target and the sources received, both kernels' end to end.
func pairOutputs(t *testing.T, be string, xs, ys, zs, qs, sx, sy, sz, sq []float64) (out [2][]float64) {
	zero := func(n int) fusedSide {
		return fusedSide{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	}
	withBackend(t, be, func() {
		phi, sphi := make([]float64, len(xs)), make([]float64, len(sx))
		PairwisePotentialSoA(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi)
		a, b := zero(len(xs)), zero(len(sx))
		PairwiseFusedSoA(xs, ys, zs, qs, a.phi, a.gx, a.gy, a.gz, sx, sy, sz, sq, b.phi, b.gx, b.gy, b.gz)
		out = [2][]float64{append(phi, a.flat()...), append(sphi, b.flat()...)}
	})
	return out
}

// TestPairKernelsExtremeSeparations holds both pair kernels on every backend
// to the scalar body at separations across the double range, each pair alone
// (the masked group on avx512) and eight at once at the same distance (a
// whole group): tiny r2 (subnormal below d ~ 1.5e-154, where a Newton step
// ordered y*y would overflow), huge r2, r2 = +Inf (d = 1e155: the scalar's
// exact zero on both sides) and a NaN coordinate (NaN on both sides).
func TestPairKernelsExtremeSeparations(t *testing.T) {
	dirs := [8][3]float64{{1, 0, 0}, {0, -1, 0}, {0, 0, 1}, {-1, 0, 0}, {0, 1, 0}, {0, 0, -1}, {0.6, 0.8, 0}, {0, -0.6, 0.8}}
	agree := func(got, want float64) bool {
		switch {
		case math.IsNaN(want) || math.IsInf(want, 0):
			return math.IsNaN(got) == math.IsNaN(want) && (math.IsNaN(got) || got == want)
		default:
			return math.Abs(got-want) <= 1e-12*math.Abs(want)
		}
	}
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			for _, d := range []float64{1e-160, 1e-155, 1e-100, 1, 1e100, 1e154, 1e155, math.NaN()} {
				for _, scnt := range []int{1, 8} {
					xs, ys, zs, qs := []float64{0.5 * d}, []float64{0}, []float64{0}, []float64{1.25}
					sx, sy, sz, sq := make([]float64, scnt), make([]float64, scnt), make([]float64, scnt), make([]float64, scnt)
					for j := range sx {
						sx[j], sy[j], sz[j], sq[j] = xs[0]+d*dirs[j][0], d*dirs[j][1], d*dirs[j][2], 0.75-0.125*float64(j)
					}
					got, want := pairOutputs(t, be, xs, ys, zs, qs, sx, sy, sz, sq), pairOutputs(t, simd.Scalar, xs, ys, zs, qs, sx, sy, sz, sq)
					for side := range got {
						for i, w := range want[side] {
							g := got[side][i]
							if d == 1e155 && (g != 0 || w != 0) {
								t.Fatalf("d=%g scnt=%d side %d element %d: %v (scalar %v), want an exact zero", d, scnt, side, i, g, w)
							}
							if math.IsNaN(d) && !(math.IsNaN(g) && math.IsNaN(w)) {
								t.Fatalf("d=NaN scnt=%d side %d element %d: %v (scalar %v), want NaN", scnt, side, i, g, w)
							}
							if !agree(g, w) {
								t.Fatalf("d=%g scnt=%d side %d element %d: %v, scalar %v", d, scnt, side, i, g, w)
							}
						}
					}
				}
			}
		})
	}
}

// TestNearFieldDeterministicPerBackend runs each dispatched kernel twice
// on identical inputs per backend and requires bitwise-equal outputs: the
// within-backend half of the reproducibility contract.
func TestNearFieldDeterministicPerBackend(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(24))
				cnt, scnt := 33, 31
				xs, ys, zs, qs := cloud(rng, cnt)
				sx, sy, sz, sq := cloud(rng, scnt)
				run := func() ([]float64, []float64) {
					phi := make([]float64, cnt)
					sphi := make([]float64, scnt)
					AccumulatePotentialSoA(xs, ys, zs, phi, sx, sy, sz, sq)
					PairwisePotentialSoA(xs, ys, zs, qs, phi, sx, sy, sz, sq, sphi)
					gx, gy, gz := make([]float64, cnt), make([]float64, cnt), make([]float64, cnt)
					sgx, sgy, sgz := make([]float64, scnt), make([]float64, scnt), make([]float64, scnt)
					PairwiseFusedSoA(xs, ys, zs, qs, phi, gx, gy, gz, sx, sy, sz, sq, sphi, sgx, sgy, sgz)
					phi = append(append(append(phi, gx...), gy...), gz...)
					sphi = append(append(append(sphi, sgx...), sgy...), sgz...)
					return phi, sphi
				}
				a1, s1 := run()
				a2, s2 := run()
				for i := range a1 {
					if a1[i] != a2[i] {
						t.Fatalf("nondeterministic target output at %d", i)
					}
				}
				for i := range s1 {
					if s1[i] != s2[i] {
						t.Fatalf("nondeterministic sphi at %d", i)
					}
				}
			})
		})
	}
}

func benchSoA(b *testing.B, cnt int) {
	for _, be := range simd.Supported() {
		b.Run(be, func(b *testing.B) {
			withBackend(b, be, func() {
				rng := rand.New(rand.NewSource(25))
				xs, ys, zs, _ := cloud(rng, cnt)
				sx, sy, sz, sq := cloud(rng, cnt)
				phi := make([]float64, cnt)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					AccumulatePotentialSoA(xs, ys, zs, phi, sx, sy, sz, sq)
				}
				inter := float64(cnt) * float64(cnt) * float64(b.N)
				b.ReportMetric(inter/b.Elapsed().Seconds()/1e6, "Minter/s")
			})
		})
	}
}

func BenchmarkAccumulatePotentialSoA64(b *testing.B) { benchSoA(b, 64) }

// benchPair times a symmetric pair kernel on cnt targets against scnt
// sources carved the way core.Solver.prepare carves its mirrors: eight
// planes of one allocation, each cnt+scnt rounded up to 512 long (4 KiB),
// the targets at the start and the sources at the end, where the solver
// keeps the grid's last box. "congruent" puts the planes 4 KiB multiples
// apart, as separate page-aligned allocations are: every plane ends on a
// page boundary, so a masked last group of sources runs its dead lanes onto
// the next page. "staggered" adds the solver's 512 B per plane. The shapes
// are the Plummer solve's: 64 a few sparse boxes' run, 940 a crowded box,
// 1880 a crowded box's window of its neighbour row, 2 and 40 the thin
// calls of its light rounds; 8x40 is also the uniform solve's cross-row
// call, a box against its window of five. Mpairs/s counts each pair once, although it is
// deposited twice.
func benchPair(b *testing.B, cnt, scnt int, fused bool) {
	for _, be := range simd.Supported() {
		for _, layout := range []string{"congruent", "staggered"} {
			b.Run(be+"/"+layout, func(b *testing.B) {
				withBackend(b, be, func() {
					np := (cnt + scnt + 511) &^ 511
					stride := np
					if layout == "staggered" {
						stride += 64
					}
					buf := make([]float64, 8*stride)
					rng := rand.New(rand.NewSource(27))
					for i := range buf[:4*stride] {
						buf[i] = rng.NormFloat64()
					}
					var t, s [8][]float64
					for k := range t {
						p := buf[k*stride : k*stride+np]
						t[k], s[k] = p[:cnt], p[np-scnt:]
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if fused {
							PairwiseFusedSoA(t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7], s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
						} else {
							PairwisePotentialSoA(t[0], t[1], t[2], t[3], t[4], s[0], s[1], s[2], s[3], s[4])
						}
					}
					pairs := float64(cnt) * float64(scnt) * float64(b.N)
					b.ReportMetric(pairs/b.Elapsed().Seconds()/1e6, "Mpairs/s")
				})
			})
		}
	}
}

func BenchmarkPairwisePotentialSoA64(b *testing.B)   { benchPair(b, 64, 64, false) }
func BenchmarkPairwisePotentialSoA940(b *testing.B)  { benchPair(b, 940, 940, false) }
func BenchmarkPairwisePotentialSoA8x40(b *testing.B) { benchPair(b, 8, 40, false) }
func BenchmarkPairwiseFusedSoA64(b *testing.B)       { benchPair(b, 64, 64, true) }
func BenchmarkPairwiseFusedSoA940(b *testing.B)      { benchPair(b, 940, 940, true) }
func BenchmarkPairwiseFusedSoA940x1880(b *testing.B) { benchPair(b, 940, 1880, true) }
func BenchmarkPairwiseFusedSoA940x2(b *testing.B)    { benchPair(b, 940, 2, true) }
func BenchmarkPairwiseFusedSoA8x40(b *testing.B)     { benchPair(b, 8, 40, true) }
