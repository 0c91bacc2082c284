package geom

import "math/bits"

// This file implements the address-bit manipulations of the paper's data
// layouts. On the CM-5/5E a block-allocated axis of extent 2^(p+n) over 2^p
// VUs splits its address field b_{p+n-1}..b_0 into a VU address (high p bits)
// and a local memory address (low n bits); Figure 4 of the paper. The
// coordinate sort of Section 3.2 builds sort keys by concatenating the VU
// address fields of all axes (most significant) with the local memory
// address fields (least significant), Figure 5.

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Log2 returns log2(n) for a positive power of two n; it panics otherwise.
// Grid extents and machine sizes in this codebase are powers of two by
// construction (non-adaptive hierarchy, CM-style machine), so a non-power
// argument is a program bug.
func Log2(n int) int {
	if !IsPow2(n) {
		panic("geom: Log2 of non power of two")
	}
	return bits.TrailingZeros(uint(n))
}

// AxisSplit describes the block-allocation address split of one axis: the
// extent 2^(VUBits+LocalBits), with the high VUBits selecting the VU along
// this axis and the low LocalBits selecting the position within the VU's
// subgrid.
type AxisSplit struct {
	VUBits    int
	LocalBits int
}

// Split decomposes an axis coordinate into (vu, local) parts.
func (a AxisSplit) Split(x int) (vu, local int) {
	return x >> a.LocalBits, x & (1<<a.LocalBits - 1)
}

// Join is the inverse of Split.
func (a AxisSplit) Join(vu, local int) int { return vu<<a.LocalBits | local }

// Layout3 is the block layout of a 3-D grid of boxes over a 3-D grid of VUs:
// one AxisSplit per axis. It implements the paper's coordinate-sort key
// construction.
type Layout3 struct {
	X, Y, Z AxisSplit
}

// VUOf returns the flat VU index owning box coordinate c, with the X axis
// using the lowest-order VU address bits (the CM convention exploited by the
// paper's shift ordering: adjacent low-order VU addresses are adjacent
// nodes).
func (l Layout3) VUOf(c Coord3) int {
	vx, _ := l.X.Split(c.X)
	vy, _ := l.Y.Split(c.Y)
	vz, _ := l.Z.Split(c.Z)
	return (vz<<l.Y.VUBits|vy)<<l.X.VUBits | vx
}

// LocalOf returns the flat local-memory index of box coordinate c within its
// VU subgrid (row-major, x fastest).
func (l Layout3) LocalOf(c Coord3) int {
	_, lx := l.X.Split(c.X)
	_, ly := l.Y.Split(c.Y)
	_, lz := l.Z.Split(c.Z)
	return (lz<<l.Y.LocalBits|ly)<<l.X.LocalBits | lx
}

// SortKey returns the coordinate-sort key of Section 3.2 / Figure 5:
// z..zy..yx..x (VU addresses) concatenated with z..zy..yx..x (local memory
// addresses). Sorting particles by this key places particles of the same box
// together AND orders boxes by owning VU first, so a sorted 1-D particle
// array block-distributed over the VUs aligns with the 4-D potential array.
func (l Layout3) SortKey(c Coord3) uint64 {
	vx, lx := l.X.Split(c.X)
	vy, ly := l.Y.Split(c.Y)
	vz, lz := l.Z.Split(c.Z)
	vu := uint64((vz<<l.Y.VUBits|vy)<<l.X.VUBits | vx)
	local := uint64((lz<<l.Y.LocalBits|ly)<<l.X.LocalBits | lx)
	return vu<<(l.X.LocalBits+l.Y.LocalBits+l.Z.LocalBits) | local
}

// Subgrid returns the per-VU subgrid extents (Sx, Sy, Sz).
func (l Layout3) Subgrid() (sx, sy, sz int) {
	return 1 << l.X.LocalBits, 1 << l.Y.LocalBits, 1 << l.Z.LocalBits
}

// VUGrid returns the VU grid extents (Px, Py, Pz).
func (l Layout3) VUGrid() (px, py, pz int) {
	return 1 << l.X.VUBits, 1 << l.Y.VUBits, 1 << l.Z.VUBits
}

// NumVUs returns the total number of VUs.
func (l Layout3) NumVUs() int { return 1 << (l.X.VUBits + l.Y.VUBits + l.Z.VUBits) }

// BalancedLayout3 distributes a cubic grid of extent n=2^k over nvu=2^p VUs
// the way the Connection Machine run-time system does by default: balance
// subgrid extents to minimize the surface-to-volume ratio. VU bits are dealt
// to the axes as evenly as possible, extra bits going to Z first, then Y
// (so X, the fastest-varying axis, keeps the longest local extent).
func BalancedLayout3(n, nvu int) Layout3 {
	k := Log2(n)
	p := Log2(nvu)
	if p > 3*k {
		panic("geom: more VUs than boxes")
	}
	base := p / 3
	rem := p % 3
	zb, yb, xb := base, base, base
	if rem >= 1 {
		zb++
	}
	if rem >= 2 {
		yb++
	}
	return Layout3{
		X: AxisSplit{VUBits: xb, LocalBits: k - xb},
		Y: AxisSplit{VUBits: yb, LocalBits: k - yb},
		Z: AxisSplit{VUBits: zb, LocalBits: k - zb},
	}
}
