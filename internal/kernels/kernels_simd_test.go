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
	{0, 0}, {1, 0}, {0, 5}, {1, 1}, {3, 2}, {5, 4}, {7, 5}, {8, 8},
	{13, 9}, {16, 12}, {20, 17}, {33, 30}, {40, 64},
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

					// AccumulatePotentialSoA vs its scalar loop.
					phi := poisoned(cnt, fill)
					want := append([]float64(nil), phi...)
					AccumulatePotentialSoA(xs, ys, zs, phi, sx, sy, sz3, sq)
					accumPotSoAScalar(xs, ys, zs, want, sx, sy, sz3, sq)
					closeEnough(t, "AccumulatePotentialSoA", cnt, scnt, phi, want)

					// AccumulateForceSoA.
					phi = poisoned(cnt, fill)
					gx, gy, gz, _ := cloud(rng, cnt)
					wphi := append([]float64(nil), phi...)
					wgx := append([]float64(nil), gx...)
					wgy := append([]float64(nil), gy...)
					wgz := append([]float64(nil), gz...)
					AccumulateForceSoA(xs, ys, zs, phi, gx, gy, gz, sx, sy, sz3, sq)
					accumForceSoAScalar(xs, ys, zs, wphi, wgx, wgy, wgz, sx, sy, sz3, sq)
					closeEnough(t, "AccumulateForceSoA phi", cnt, scnt, phi, wphi)
					closeEnough(t, "AccumulateForceSoA gx", cnt, scnt, gx, wgx)
					closeEnough(t, "AccumulateForceSoA gy", cnt, scnt, gy, wgy)
					closeEnough(t, "AccumulateForceSoA gz", cnt, scnt, gz, wgz)

					// PairwisePotentialSoA, both deposit sides.
					phi = poisoned(cnt, fill)
					sphi := poisoned(scnt, fill)
					wphi = append([]float64(nil), phi...)
					wsphi := append([]float64(nil), sphi...)
					PairwisePotentialSoA(xs, ys, zs, qs, phi, sx, sy, sz3, sq, sphi)
					pairPotSoAScalar(xs, ys, zs, qs, wphi, sx, sy, sz3, sq, wsphi)
					closeEnough(t, "PairwisePotentialSoA phi", cnt, scnt, phi, wphi)
					closeEnough(t, "PairwisePotentialSoA sphi", cnt, scnt, sphi, wsphi)
				}
			})
		})
	}
}

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
					fill := func(int) float64 { return rng.NormFloat64() }

					phi := poisoned(cnt, fill)
					want := append([]float64(nil), phi...)
					Accumulate(posA, phi, posB, qB)
					accumulateScalar(posA, want, posB, qB)
					closeEnough(t, "Accumulate", cnt, scnt, phi, want)

					acc := poisonedVec3(rng, cnt)
					wacc := append([]geom.Vec3(nil), acc...)
					AccumulateForce(posA, acc, posB, qB)
					accumulateForceScalar(posA, wacc, posB, qB)
					closeEnough(t, "AccumulateForce", cnt, scnt, flatten(acc), flatten(wacc))

					// The fused kernel against its own scalar loop, and against
					// the two kernels it replaces (a different formula for the
					// field weight, so rounding only).
					facc := append([]geom.Vec3(nil), wacc...)
					fphi := append([]float64(nil), want...)
					sacc := append([]geom.Vec3(nil), wacc...)
					sphi := append([]float64(nil), want...)
					AccumulateFused(posA, fphi, facc, posB, qB)
					accumulateFusedScalar(posA, sphi, sacc, posB, qB)
					closeEnough(t, "AccumulateFused phi", cnt, scnt, fphi, sphi)
					closeEnough(t, "AccumulateFused acc", cnt, scnt, flatten(facc), flatten(sacc))
					accumulateScalar(posA, want, posB, qB)
					accumulateForceScalar(posA, wacc, posB, qB)
					closeEnough(t, "AccumulateFused phi vs Accumulate", cnt, scnt, fphi, want)
					closeEnough(t, "AccumulateFused acc vs AccumulateForce", cnt, scnt, flatten(facc), flatten(wacc))
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

					gx, gy, gz := make([]float64, 2), make([]float64, 2), make([]float64, 2)
					phi2 := make([]float64, 2)
					AccumulateForceSoA(xs, ys, zs, phi2, gx, gy, gz, sx, sy, sz, sq)
					sphi := make([]float64, scnt)
					phi3 := make([]float64, 2)
					PairwisePotentialSoA(xs, ys, zs, qs, phi3, sx, sy, sz, sq, sphi)
					posA := []geom.Vec3{{X: xs[0], Y: ys[0], Z: zs[0]}, {X: xs[1], Y: ys[1], Z: zs[1]}}
					posB := make([]geom.Vec3, scnt)
					for j := range posB {
						posB[j] = geom.Vec3{X: sx[j], Y: sy[j], Z: sz[j]}
					}
					phi4 := make([]float64, 2)
					Accumulate(posA, phi4, posB, sq)
					acc := make([]geom.Vec3, 2)
					AccumulateForce(posA, acc, posB, sq)
					phi5 := make([]float64, 2)
					acc5 := make([]geom.Vec3, 2)
					AccumulateFused(posA, phi5, acc5, posB, sq)
					for i := range phi5 {
						if math.Abs(phi5[i]-wantPhi[i]) > 1e-12*(math.Abs(wantPhi[i])+1) {
							t.Fatalf("lane %d: fused phi[%d] = %g, want %g", lane, i, phi5[i], wantPhi[i])
						}
					}
					closeEnough(t, "AccumulateFused acc vs AccumulateForce", 2, scnt, flatten(acc5), flatten(acc))

					// Sources aliasing the targets, as when a box sits inside
					// its own source run: every particle meets itself in lane
					// `j mod 4` and must drop out; a distinct particle at the
					// same point (source lane+1 moved onto source lane) drops
					// out of that pair too, and a zero charge on the dead lane
					// must not turn its Inf into NaN.
					posB[(lane+1)%scnt] = posB[lane]
					qz := append([]float64(nil), sq...)
					qz[lane] = 0
					selfPhi := make([]float64, scnt)
					selfAcc := make([]geom.Vec3, scnt)
					AccumulateFused(posB, selfPhi, selfAcc, posB, qz)
					wantSelfPhi := make([]float64, scnt)
					wantSelfAcc := make([]geom.Vec3, scnt)
					for i := range posB {
						for j := range posB {
							d := posB[j].Sub(posB[i])
							if r2 := d.Norm2(); r2 > 0 {
								wantSelfPhi[i] += qz[j] / math.Sqrt(r2)
								wantSelfAcc[i] = wantSelfAcc[i].Add(d.Scale(qz[j] / (r2 * math.Sqrt(r2))))
							}
						}
					}
					closeEnough(t, "AccumulateFused aliased phi", scnt, scnt, selfPhi, wantSelfPhi)
					closeEnough(t, "AccumulateFused aliased acc", scnt, scnt, flatten(selfAcc), flatten(wantSelfAcc))

					for _, v := range [][]float64{gx, gy, gz, phi2, phi3, sphi, phi4, flatten(acc),
						phi5, flatten(acc5), selfPhi, flatten(selfAcc)} {
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

// fusedOrder transcribes AccumulateFused's documented reduction order for
// one backend (dispatch.go) with explicit math.FMA where the avx2 body
// fuses and explicitly rounded products where it does not.
func fusedOrder(be string, posA []geom.Vec3, phiA []float64, accA, posB []geom.Vec3, qB []float64) {
	s4 := 0
	if be == simd.AVX2 {
		s4 = len(posB) &^ 3
	}
	for i, a := range posA {
		if s4 > 0 {
			var p, fx, fy, fz [4]float64
			for g := 0; g < s4; g += 4 {
				for l := 0; l < 4; l++ {
					b := posB[g+l]
					dx, dy, dz := b.X-a.X, b.Y-a.Y, b.Z-a.Z
					r2 := math.FMA(dz, dz, math.FMA(dy, dy, float64(dx*dx)))
					inv := 0.0
					if r2 != 0 {
						inv = 1 / math.Sqrt(r2)
					}
					qi := float64(qB[g+l] * inv)
					p[l] += qi
					w := float64(qi * float64(inv*inv))
					fx[l] = math.FMA(w, dx, fx[l])
					fy[l] = math.FMA(w, dy, fy[l])
					fz[l] = math.FMA(w, dz, fz[l])
				}
			}
			hsum := func(v [4]float64) float64 { return (v[0] + v[2]) + (v[1] + v[3]) }
			phiA[i] += hsum(p)
			accA[i].X += hsum(fx)
			accA[i].Y += hsum(fy)
			accA[i].Z += hsum(fz)
		}
		var p, fx, fy, fz float64
		for j := s4; j < len(posB); j++ {
			b := posB[j]
			dx, dy, dz := b.X-a.X, b.Y-a.Y, b.Z-a.Z
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			if r2 == 0 {
				continue
			}
			inv := 1 / math.Sqrt(r2)
			qi := float64(qB[j] * inv)
			p += qi
			w := float64(qi * float64(inv*inv))
			fx += float64(w * dx)
			fy += float64(w * dy)
			fz += float64(w * dz)
		}
		phiA[i] += p
		accA[i].X += fx
		accA[i].Y += fy
		accA[i].Z += fz
	}
}

// TestAccumulateFusedOrderExact pins the fused kernel's reduction order on
// every backend, bit for bit, across source counts on both sides of the
// vector width and with a tail of every length.
func TestAccumulateFusedOrderExact(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			withBackend(t, be, func() {
				rng := rand.New(rand.NewSource(28))
				for _, scnt := range []int{1, 3, 4, 5, 64, 67} {
					const cnt = 9
					posA := poisonedVec3(rng, cnt)
					posB := poisonedVec3(rng, scnt)
					posB[scnt/2] = posA[cnt/2] // one dead lane among live ones
					qB := poisoned(scnt, func(int) float64 { return rng.NormFloat64() })
					phi := poisoned(cnt, func(int) float64 { return rng.NormFloat64() })
					acc := poisonedVec3(rng, cnt)
					wphi := append([]float64(nil), phi...)
					wacc := append([]geom.Vec3(nil), acc...)
					AccumulateFused(posA, phi, acc, posB, qB)
					fusedOrder(be, posA, wphi, wacc, posB, qB)
					for i := range wphi {
						if phi[i] != wphi[i] || acc[i] != wacc[i] {
							t.Fatalf("scnt=%d target %d: got (%v, %v), the documented order gives (%v, %v)",
								scnt, i, phi[i], acc[i], wphi[i], wacc[i])
						}
					}
				}
			})
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
					AccumulateForceSoA(xs, ys, zs, phi, gx, gy, gz, sx, sy, sz, sq)
					phi = append(phi, gx...)
					phi = append(phi, gy...)
					phi = append(phi, gz...)
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

func BenchmarkAccumulateForceSoA64(b *testing.B) {
	for _, be := range simd.Supported() {
		b.Run(be, func(b *testing.B) {
			withBackend(b, be, func() {
				rng := rand.New(rand.NewSource(26))
				const cnt = 64
				xs, ys, zs, _ := cloud(rng, cnt)
				sx, sy, sz, sq := cloud(rng, cnt)
				phi := make([]float64, cnt)
				gx, gy, gz := make([]float64, cnt), make([]float64, cnt), make([]float64, cnt)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					AccumulateForceSoA(xs, ys, zs, phi, gx, gy, gz, sx, sy, sz, sq)
				}
				inter := float64(cnt) * float64(cnt) * float64(b.N)
				b.ReportMetric(inter/b.Elapsed().Seconds()/1e6, "Minter/s")
			})
		})
	}
}

func benchAoS64(b *testing.B, kernel func(posA []geom.Vec3, phi []float64, acc, posB []geom.Vec3, qB []float64)) {
	for _, be := range simd.Supported() {
		b.Run(be, func(b *testing.B) {
			withBackend(b, be, func() {
				rng := rand.New(rand.NewSource(27))
				const cnt = 64
				posA := poisonedVec3(rng, cnt)
				posB := poisonedVec3(rng, cnt)
				qB := poisoned(cnt, func(int) float64 { return rng.NormFloat64() })
				phi := make([]float64, cnt)
				acc := make([]geom.Vec3, cnt)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernel(posA, phi, acc, posB, qB)
				}
				inter := float64(cnt) * float64(cnt) * float64(b.N)
				b.ReportMetric(inter/b.Elapsed().Seconds()/1e6, "Minter/s")
			})
		})
	}
}

func BenchmarkAccumulateAoS64(b *testing.B) {
	benchAoS64(b, func(posA []geom.Vec3, phi []float64, _, posB []geom.Vec3, qB []float64) {
		Accumulate(posA, phi, posB, qB)
	})
}

// BenchmarkAccumulateTwoPassAoS64 is what a force solve's near field paid
// per source set before the fused kernel; Minter/s counts each pair once.
func BenchmarkAccumulateTwoPassAoS64(b *testing.B) {
	benchAoS64(b, func(posA []geom.Vec3, phi []float64, acc, posB []geom.Vec3, qB []float64) {
		Accumulate(posA, phi, posB, qB)
		AccumulateForce(posA, acc, posB, qB)
	})
}

func BenchmarkAccumulateFusedAoS64(b *testing.B) { benchAoS64(b, AccumulateFused) }
