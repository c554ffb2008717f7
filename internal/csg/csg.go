// Package csg implements a small constructive-solid-geometry kernel.
//
// CAD parts in this reproduction are synthesized as CSG trees over
// primitive solids (boxes, cylinders, spheres, tori) combined with
// boolean operators and affine transforms. A solid answers point
// membership queries; the voxelizer samples it on a regular grid to obtain
// the voxel approximations the paper's similarity models consume.
package csg

import (
	"math"

	"github.com/voxset/voxset/internal/geom"
)

// Solid is a closed subset of ℝ³ described by a membership predicate and a
// bounding box. Bounds must contain the solid entirely but may be loose.
//
// The voxelizers rely on that contract: they test only the cell centers
// that Bounds, widened by a rounding slack of about 1e-9 of the
// coordinates' magnitude, admits, and count every other cell empty
// without asking Contains. A Solid whose Contains accepts a point farther
// outside its Bounds than that loses the point from every voxelization. A
// box's faces are closed, so points on them must stay in the test set; the
// slack only ever adds cells. Composite solids keep the contract by
// construction: a union's box spans its parts', an intersection's is their
// overlap, a difference keeps its first operand's, and a transformed
// solid's is its child's box mapped forward, whose rounding (a few ulps)
// the slack covers.
type Solid interface {
	// Contains reports whether the point lies inside the solid.
	Contains(p geom.Vec3) bool
	// Bounds returns an axis-aligned box containing the solid.
	Bounds() geom.AABB
}

// ---------------------------------------------------------------------------
// Primitives

type box struct{ b geom.AABB }

// NewBox returns the axis-aligned box spanned by corners a and b.
func NewBox(a, b geom.Vec3) Solid { return box{geom.Box(a, b)} }

func (s box) Contains(p geom.Vec3) bool { return s.b.Contains(p) }
func (s box) Bounds() geom.AABB         { return s.b }

type sphere struct {
	c geom.Vec3
	r float64
}

// NewSphere returns the ball of radius r centered at c.
func NewSphere(c geom.Vec3, r float64) Solid { return sphere{c, r} }

func (s sphere) Contains(p geom.Vec3) bool { return p.Sub(s.c).Norm2() <= s.r*s.r }
func (s sphere) Bounds() geom.AABB {
	e := geom.V(s.r, s.r, s.r)
	return geom.AABB{Min: s.c.Sub(e), Max: s.c.Add(e)}
}

type cylinder struct {
	c          geom.Vec3 // center of the axis segment
	axis       int       // 0,1,2
	r, halfLen float64
}

// NewCylinder returns a solid cylinder whose axis is parallel to the given
// coordinate axis (0 = x, 1 = y, 2 = z), centered at c, with radius r and
// total length length.
func NewCylinder(c geom.Vec3, axis int, r, length float64) Solid {
	if axis < 0 || axis > 2 {
		panic("csg: cylinder axis must be 0, 1 or 2")
	}
	return cylinder{c, axis, r, length / 2}
}

func (s cylinder) Contains(p geom.Vec3) bool {
	d := p.Sub(s.c)
	h := d.Component(s.axis)
	if h < -s.halfLen || h > s.halfLen {
		return false
	}
	u := d.Component((s.axis + 1) % 3)
	v := d.Component((s.axis + 2) % 3)
	return u*u+v*v <= s.r*s.r
}

func (s cylinder) Bounds() geom.AABB {
	e := geom.V(s.r, s.r, s.r).SetComponent(s.axis, s.halfLen)
	return geom.AABB{Min: s.c.Sub(e), Max: s.c.Add(e)}
}

type torus struct {
	c      geom.Vec3
	axis   int
	rMajor float64 // center-of-tube radius
	rMinor float64 // tube radius
}

// NewTorus returns a solid torus around axis (0 = x, 1 = y, 2 = z)
// centered at c with major radius rMajor and tube radius rMinor.
func NewTorus(c geom.Vec3, axis int, rMajor, rMinor float64) Solid {
	if axis < 0 || axis > 2 {
		panic("csg: torus axis must be 0, 1 or 2")
	}
	return torus{c, axis, rMajor, rMinor}
}

func (s torus) Contains(p geom.Vec3) bool {
	d := p.Sub(s.c)
	h := d.Component(s.axis)
	u := d.Component((s.axis + 1) % 3)
	v := d.Component((s.axis + 2) % 3)
	q := math.Hypot(u, v) - s.rMajor
	return q*q+h*h <= s.rMinor*s.rMinor
}

func (s torus) Bounds() geom.AABB {
	out := s.rMajor + s.rMinor
	e := geom.V(out, out, out).SetComponent(s.axis, s.rMinor)
	return geom.AABB{Min: s.c.Sub(e), Max: s.c.Add(e)}
}

type halfspace struct {
	n geom.Vec3 // unit normal
	d float64   // points with n·p <= d are inside
}

// NewHalfspace returns the halfspace {p : n·p ≤ d}. Its bounds are the
// whole space; use it only inside intersections with bounded solids.
func NewHalfspace(n geom.Vec3, d float64) Solid {
	return halfspace{n.Normalize(), d}
}

func (s halfspace) Contains(p geom.Vec3) bool { return s.n.Dot(p) <= s.d }
func (s halfspace) Bounds() geom.AABB {
	inf := math.Inf(1)
	return geom.AABB{Min: geom.V(-inf, -inf, -inf), Max: geom.V(inf, inf, inf)}
}

// ---------------------------------------------------------------------------
// Boolean operators

type union struct{ parts []Solid }

// Union returns the set union of the given solids.
func Union(parts ...Solid) Solid {
	if len(parts) == 1 {
		return parts[0]
	}
	return union{parts}
}

func (s union) Contains(p geom.Vec3) bool {
	for _, part := range s.parts {
		if part.Contains(p) {
			return true
		}
	}
	return false
}

func (s union) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, part := range s.parts {
		b = b.Union(part.Bounds())
	}
	return b
}

type intersection struct{ parts []Solid }

// Intersect returns the set intersection of the given solids.
func Intersect(parts ...Solid) Solid {
	if len(parts) == 1 {
		return parts[0]
	}
	return intersection{parts}
}

func (s intersection) Contains(p geom.Vec3) bool {
	for _, part := range s.parts {
		if !part.Contains(p) {
			return false
		}
	}
	return true
}

func (s intersection) Bounds() geom.AABB {
	if len(s.parts) == 0 {
		return geom.EmptyAABB()
	}
	b := s.parts[0].Bounds()
	for _, part := range s.parts[1:] {
		b = b.Intersect(part.Bounds())
	}
	return b
}

type difference struct{ a, b Solid }

// Difference returns the points of a that are not in b.
func Difference(a, b Solid) Solid { return difference{a, b} }

func (s difference) Contains(p geom.Vec3) bool {
	return s.a.Contains(p) && !s.b.Contains(p)
}

func (s difference) Bounds() geom.AABB { return s.a.Bounds() }

// ---------------------------------------------------------------------------
// Transform

type transformed struct {
	s   Solid
	inv geom.Affine // maps world points into the solid's local frame
	b   geom.AABB
}

// Transform returns the image of s under the affine map a.
func Transform(s Solid, a geom.Affine) Solid {
	return &transformed{s: s, inv: a.Inverse(), b: s.Bounds().Transform(a)}
}

func (t *transformed) Contains(p geom.Vec3) bool {
	// t.inv.Apply(p) with the matrix read in place: Apply's value receiver
	// copies the 96-byte Affine per sample, which shows up as the top cost
	// of voxelizing transformed solids. Same expressions in the same
	// order, so the mapped point is bit-identical.
	m, tr := &t.inv.M, t.inv.T
	return t.s.Contains(geom.Vec3{
		X: m[0][0]*p.X + m[0][1]*p.Y + m[0][2]*p.Z + tr.X,
		Y: m[1][0]*p.X + m[1][1]*p.Y + m[1][2]*p.Z + tr.Y,
		Z: m[2][0]*p.X + m[2][1]*p.Y + m[2][2]*p.Z + tr.Z,
	})
}

func (t *transformed) Bounds() geom.AABB { return t.b }
