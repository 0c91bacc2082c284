package kernels_test

import (
	"math"
	"math/rand"
	"testing"

	"nbody/internal/direct"
	"nbody/internal/geom"
	"nbody/internal/kernels"
	"nbody/internal/simd"
)

// oneSided is internal/direct's answer for what a set of particles receives
// from another: the potentials and fields at pos[i] for i in [lo, hi) of
// the union, with every charge outside [from, to) zeroed so that only the
// other set acts.
func oneSided(pos []geom.Vec3, q []float64, lo, hi, from, to int) (phi []float64, acc []geom.Vec3) {
	qs := make([]float64, len(q))
	copy(qs[from:to], q[from:to])
	return direct.Potentials(pos, qs)[lo:hi], direct.Accelerations(pos, qs)[lo:hi]
}

// TestPairwiseFusedMatchesDirect holds the symmetric fused kernel to an
// independent reference on every backend: what each side deposits must be
// internal/direct's one-sided potential and field from the other side, to
// rounding, including a source coincident with a target, whose pair drops
// out of both sides.
func TestPairwiseFusedMatchesDirect(t *testing.T) {
	for _, be := range simd.Supported() {
		t.Run(be, func(t *testing.T) {
			prev := simd.Active()
			if err := simd.SetBackend(be); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = simd.SetBackend(prev) }()
			rng := rand.New(rand.NewSource(29))
			for _, sz := range [][2]int{{1, 1}, {3, 5}, {9, 4}, {13, 67}, {40, 33}} {
				cnt, scnt := sz[0], sz[1]
				pos := make([]geom.Vec3, cnt+scnt)
				q := make([]float64, cnt+scnt)
				for i := range pos {
					pos[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
					q[i] = rng.NormFloat64()
				}
				pos[cnt+scnt/2] = pos[cnt/2] // a coincident pair
				planes := func(lo, hi int) (x, y, z, qq, phi, gx, gy, gz []float64) {
					for i := lo; i < hi; i++ {
						x, y, z, qq = append(x, pos[i].X), append(y, pos[i].Y), append(z, pos[i].Z), append(qq, q[i])
					}
					n := hi - lo
					return x, y, z, qq, make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				}
				tx, ty, tz, tq, tphi, tgx, tgy, tgz := planes(0, cnt)
				sx, sy, sz3, sq, sphi, sgx, sgy, sgz := planes(cnt, cnt+scnt)
				kernels.PairwiseFusedSoA(tx, ty, tz, tq, tphi, tgx, tgy, tgz, sx, sy, sz3, sq, sphi, sgx, sgy, sgz)

				for _, side := range []struct {
					name             string
					phi, gx, gy, gz  []float64
					lo, hi, from, to int
				}{
					{"target", tphi, tgx, tgy, tgz, 0, cnt, cnt, cnt + scnt},
					{"source", sphi, sgx, sgy, sgz, cnt, cnt + scnt, 0, cnt},
				} {
					wantPhi, wantAcc := oneSided(pos, q, side.lo, side.hi, side.from, side.to)
					for i := range wantPhi {
						got := [4]float64{side.phi[i], side.gx[i], side.gy[i], side.gz[i]}
						want := [4]float64{wantPhi[i], wantAcc[i].X, wantAcc[i].Y, wantAcc[i].Z}
						for c := range got {
							if d := math.Abs(got[c] - want[c]); !(d <= 1e-12*(1+math.Abs(want[c]))) {
								t.Fatalf("cnt=%d scnt=%d %s particle %d component %d: %g, direct gives %g",
									cnt, scnt, side.name, i, c, got[c], want[c])
							}
						}
					}
				}
			}
		})
	}
}
