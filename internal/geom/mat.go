package geom

import (
	"fmt"
	"math"
)

// Mat3 is a row-major 3×3 matrix.
type Mat3 [3][3]float64

// Identity3 returns the 3×3 identity matrix.
func Identity3() Mat3 {
	return Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// MulVec returns m·v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m[i][k] * n[k][j]
			}
			r[i][j] = s
		}
	}
	return r
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[j][i]
		}
	}
	return r
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// Col returns the j-th column of m as a vector.
func (m Mat3) Col(j int) Vec3 { return Vec3{m[0][j], m[1][j], m[2][j]} }

// Row returns the i-th row of m as a vector.
func (m Mat3) Row(i int) Vec3 { return Vec3{m[i][0], m[i][1], m[i][2]} }

// RotationY returns the rotation matrix about the y-axis by angle rad.
func RotationY(rad float64) Mat3 {
	c, s := math.Cos(rad), math.Sin(rad)
	return Mat3{{c, 0, s}, {0, 1, 0}, {-s, 0, c}}
}

// RotationZ returns the rotation matrix about the z-axis by angle rad.
func RotationZ(rad float64) Mat3 {
	c, s := math.Cos(rad), math.Sin(rad)
	return Mat3{{c, -s, 0}, {s, c, 0}, {0, 0, 1}}
}

// Affine is an affine map x ↦ M·x + T.
type Affine struct {
	M Mat3
	T Vec3
}

// Apply maps the point v through the affine transform.
func (a Affine) Apply(v Vec3) Vec3 { return a.M.MulVec(v).Add(a.T) }

// Compose returns the transform "a after b": x ↦ a(b(x)).
func (a Affine) Compose(b Affine) Affine {
	return Affine{M: a.M.Mul(b.M), T: a.M.MulVec(b.T).Add(a.T)}
}

// Translate returns the pure translation by t.
func Translate(t Vec3) Affine { return Affine{M: Identity3(), T: t} }

// ScaleAffine returns the anisotropic scaling transform with factors s.
func ScaleAffine(s Vec3) Affine {
	return Affine{M: Mat3{{s.X, 0, 0}, {0, s.Y, 0}, {0, 0, s.Z}}}
}

// Rotate returns the pure rotation transform with matrix m.
func Rotate(m Mat3) Affine { return Affine{M: m} }

// Inverse returns the inverse affine transform. It panics if M is singular.
func (a Affine) Inverse() Affine {
	d := a.M.Det()
	if d == 0 {
		panic("geom: affine transform is singular")
	}
	inv := Mat3{
		{
			a.M[1][1]*a.M[2][2] - a.M[1][2]*a.M[2][1],
			a.M[0][2]*a.M[2][1] - a.M[0][1]*a.M[2][2],
			a.M[0][1]*a.M[1][2] - a.M[0][2]*a.M[1][1],
		},
		{
			a.M[1][2]*a.M[2][0] - a.M[1][0]*a.M[2][2],
			a.M[0][0]*a.M[2][2] - a.M[0][2]*a.M[2][0],
			a.M[0][2]*a.M[1][0] - a.M[0][0]*a.M[1][2],
		},
		{
			a.M[1][0]*a.M[2][1] - a.M[1][1]*a.M[2][0],
			a.M[0][1]*a.M[2][0] - a.M[0][0]*a.M[2][1],
			a.M[0][0]*a.M[1][1] - a.M[0][1]*a.M[1][0],
		},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			inv[i][j] /= d
		}
	}
	return Affine{M: inv, T: inv.MulVec(a.T).Scale(-1)}
}

// String implements fmt.Stringer.
func (m Mat3) String() string {
	return fmt.Sprintf("[%v %v %v]", m.Row(0), m.Row(1), m.Row(2))
}
