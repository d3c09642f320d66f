package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecApprox(a, b Vec3, tol float64) bool {
	return approx(a.X, b.X, tol) && approx(a.Y, b.Y, tol) && approx(a.Z, b.Z, tol)
}

func finiteVec(v Vec3) bool {
	ok := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e10 }
	return ok(v.X) && ok(v.Y) && ok(v.Z)
}

// transpose returns mᵀ. For rotation matrices this is the inverse.
func transpose(m Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[j][i]
		}
	}
	return out
}

func TestAddSubInverse(t *testing.T) {
	f := func(a, b Vec3) bool {
		if !finiteVec(a) || !finiteVec(b) {
			return true
		}
		return vecApprox(a.Add(b).Sub(b), a, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(a, b Vec3) bool {
		if !finiteVec(a) || !finiteVec(b) {
			return true
		}
		c := a.Cross(b)
		// c ⊥ a and c ⊥ b, within scale-dependent tolerance.
		tol := 1e-6 * (1 + a.Norm()*a.Norm()*b.Norm() + b.Norm()*b.Norm()*a.Norm())
		return approx(c.Dot(a), 0, tol) && approx(c.Dot(b), 0, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossRightHanded(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	z := Vec3{0, 0, 1}
	if got := x.Cross(y); !vecApprox(got, z, 1e-15) {
		t.Errorf("x × y = %v, want z", got)
	}
	if got := y.Cross(z); !vecApprox(got, x, 1e-15) {
		t.Errorf("y × z = %v, want x", got)
	}
	if got := z.Cross(x); !vecApprox(got, y, 1e-15) {
		t.Errorf("z × x = %v, want y", got)
	}
}

func TestUnitNorm(t *testing.T) {
	f := func(v Vec3) bool {
		if !finiteVec(v) || v.Norm() < 1e-9 {
			return true
		}
		return approx(v.Unit().Norm(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !Vec3.IsZero(Vec3{}.Unit()) {
		t.Error("unit of zero vector should remain zero")
	}
}

func TestAngleTo(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 2, 0}
	if got := x.AngleTo(y); !approx(got, math.Pi/2, 1e-12) {
		t.Errorf("angle(x, y) = %v, want π/2", got)
	}
	if got := x.AngleTo(x.Scale(5)); !approx(got, 0, 1e-6) {
		t.Errorf("angle(x, 5x) = %v, want 0", got)
	}
	if got := x.AngleTo(x.Neg()); !approx(got, math.Pi, 1e-6) {
		t.Errorf("angle(x, -x) = %v, want π", got)
	}
	if got := x.AngleTo(Vec3{}); got != 0 {
		t.Errorf("angle to zero vector = %v, want 0", got)
	}
}

func TestRotZQuarterTurn(t *testing.T) {
	got := RotZ(math.Pi / 2).MulVec(Vec3{1, 0, 0})
	if !vecApprox(got, Vec3{0, 1, 0}, 1e-12) {
		t.Errorf("RotZ(90°)·x = %v, want y", got)
	}
}

func TestRotationPreservesNorm(t *testing.T) {
	f := func(v Vec3, a float64) bool {
		if !finiteVec(v) || math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		for _, m := range []Mat3{RotX(a), RotZ(a)} {
			if !approx(m.MulVec(v).Norm(), v.Norm(), 1e-6*(1+v.Norm())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotationInverseIsTranspose(t *testing.T) {
	f := func(v Vec3, a float64) bool {
		if !finiteVec(v) || math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		m := RotZ(a).Mul(RotX(a / 2))
		back := transpose(m).MulVec(m.MulVec(v))
		return vecApprox(back, v, 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatMulIdentity(t *testing.T) {
	m := RotX(0.3).Mul(RotZ(1.1)).Mul(RotX(-0.7))
	id := m.Mul(transpose(m))
	want := Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !approx(id[i][j], want[i][j], 1e-12) {
				t.Fatalf("m·mᵀ[%d][%d] = %v, want %v", i, j, id[i][j], want[i][j])
			}
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 1, 1}, {-5, 0, 1, 0}, {0.5, 0, 1, 0.5},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestWrapTwoPi(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		w := WrapTwoPi(a)
		return w >= 0 && w < 2*math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapPi(t *testing.T) {
	if got := WrapPi(3 * math.Pi / 2); !approx(got, -math.Pi/2, 1e-12) {
		t.Errorf("WrapPi(3π/2) = %v, want -π/2", got)
	}
	if got := WrapPi(math.Pi); !approx(got, math.Pi, 1e-12) {
		t.Errorf("WrapPi(π) = %v, want π", got)
	}
}

func TestDistanceTo(t *testing.T) {
	a := Vec3{0, 3, 0}
	b := Vec3{4, 0, 0}
	if got := a.DistanceTo(b); !approx(got, 5, 1e-12) {
		t.Errorf("distance = %v, want 5", got)
	}
}
