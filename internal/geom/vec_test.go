package geom

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec3Arithmetic(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{-4, 5, 0.5}
	if got := v.Add(w); got != (Vec3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVec3NormAndNormalize(t *testing.T) {
	v := Vec3{3, 4, 12}
	if got := v.Norm(); got != 13 {
		t.Errorf("Norm = %v, want 13", got)
	}
	if got := v.Norm2(); got != 169 {
		t.Errorf("Norm2 = %v, want 169", got)
	}
	u := v.Normalize()
	if !almostEq(u.Norm(), 1, 1e-15) {
		t.Errorf("|Normalize| = %v", u.Norm())
	}
}

func TestVec3NormalizeZeroIsZero(t *testing.T) {
	if got := (Vec3{}).Normalize(); got != (Vec3{}) {
		t.Errorf("Normalize(zero) = %v, want zero vector", got)
	}
}

func TestVec3Dist(t *testing.T) {
	if got := (Vec3{1, 1, 1}).Dist(Vec3{1, 1, 3}); got != 2 {
		t.Errorf("Dist = %v", got)
	}
}

func TestVec2Arithmetic(t *testing.T) {
	v := Vec2{1, 2}
	w := Vec2{3, -4}
	if got := v.Add(w); got != (Vec2{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec2{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(-1); got != (Vec2{-1, -2}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vec2{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec2{3, 4}).Norm2(); got != 25 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := (Vec2{0, 1}).Angle(); !almostEq(got, math.Pi/2, 1e-15) {
		t.Errorf("Angle = %v", got)
	}
	if got := (Vec2{0, 0}).Dist(Vec2{3, 4}); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestVecStrings(t *testing.T) {
	if got := (Vec3{1, 2, 3}).String(); got != "(1, 2, 3)" {
		t.Errorf("Vec3.String = %q", got)
	}
	if got := (Vec2{1, 2}).String(); got != "(1, 2)" {
		t.Errorf("Vec2.String = %q", got)
	}
}
