// Package geom provides the small geometric and index-arithmetic vocabulary
// shared by every other package in this repository: 2-D and 3-D vectors,
// axis-aligned boxes, power-of-two grid coordinate math, and the
// VU-address / local-memory-address bit splits used by the data-parallel
// layouts of Hu & Johnsson (SC'96), Figures 4-5.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or displacement in three dimensions.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v . w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length |v|^2.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Normalize returns v/|v|, or the zero vector when v is zero. The zero case
// arises on degenerate inputs (coincident particles feeding a zero
// separation); returning zero keeps those solves finite — the near-field
// kernels treat coincident pairs as self-interactions — instead of
// propagating a panic or Inf through the pipeline.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// Dist returns |v - w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// Vec2 is a point or displacement in two dimensions (used by the 2-D variant
// of Anderson's method; the paper notes the 2-D and 3-D codes are nearly
// identical).
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s*v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Dot returns the inner product v . w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns the Euclidean length |v|.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Norm2 returns the squared Euclidean length |v|^2.
func (v Vec2) Norm2() float64 { return v.Dot(v) }

// Dist returns |v - w|.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Angle returns atan2(Y, X).
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%g, %g)", v.X, v.Y) }
