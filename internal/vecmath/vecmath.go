// Package vecmath provides the small amount of 3-D vector and matrix
// arithmetic the orbital mechanics code needs: vectors, dot/cross products,
// rotations about principal axes, and angle helpers.
//
// All angles are radians; all distances are whatever unit the caller uses
// consistently (the orbit package uses kilometers).
package vecmath

import (
	"fmt"
	"math"
)

// Vec3 is a 3-D vector.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns |v|².
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Unit returns v/|v|. The zero vector is returned unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// AngleTo returns the angle between v and w in [0, π].
func (v Vec3) AngleTo(w Vec3) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	return math.Acos(Clamp(c, -1, 1))
}

// DistanceTo returns |v - w|.
func (v Vec3) DistanceTo(w Vec3) float64 { return v.Sub(w).Norm() }

// IsZero reports whether all components are exactly zero.
func (v Vec3) IsZero() bool { return v.X == 0 && v.Y == 0 && v.Z == 0 }

// String renders the vector with 6 significant digits.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.6g, %.6g, %.6g)", v.X, v.Y, v.Z)
}

// Mat3 is a 3×3 matrix in row-major order.
type Mat3 [3][3]float64

// MulVec returns m·v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Mul returns m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				out[i][j] += m[i][k] * n[k][j]
			}
		}
	}
	return out
}

// RotX returns the rotation matrix for angle a (radians) about the X axis.
// The matrix rotates vectors by +a following the right-hand rule.
func RotX(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{
		{1, 0, 0},
		{0, c, -s},
		{0, s, c},
	}
}

// RotZ returns the rotation matrix for angle a about the Z axis.
func RotZ(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{
		{c, -s, 0},
		{s, c, 0},
		{0, 0, 1},
	}
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WrapTwoPi wraps an angle into [0, 2π).
func WrapTwoPi(a float64) float64 {
	const twoPi = 2 * math.Pi
	a = math.Mod(a, twoPi)
	if a < 0 {
		a += twoPi
	}
	return a
}

// WrapPi wraps an angle into (-π, π].
func WrapPi(a float64) float64 {
	a = WrapTwoPi(a)
	if a > math.Pi {
		a -= 2 * math.Pi
	}
	return a
}
