package geom

import "math"

// AABB is an axis-aligned bounding box described by its minimum and
// maximum corners. A box with any Min component strictly greater than the
// corresponding Max component is empty.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns the canonical empty box (+inf mins, -inf maxs), the
// identity element for Union.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Box returns the AABB spanned by the two corner points.
func Box(a, b Vec3) AABB { return AABB{Min: a.Min(b), Max: a.Max(b)} }

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Size returns the extents of the box in each dimension (zero for empty).
func (b AABB) Size() Vec3 {
	if b.IsEmpty() {
		return Vec3{}
	}
	return b.Max.Sub(b.Min)
}

// Center returns the center point of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Volume returns the volume of the box (zero for empty boxes).
func (b AABB) Volume() float64 {
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Contains reports whether the point p lies inside or on the boundary.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB {
	if b.IsEmpty() {
		return c
	}
	if c.IsEmpty() {
		return b
	}
	return AABB{Min: b.Min.Min(c.Min), Max: b.Max.Max(c.Max)}
}

// Intersect returns the intersection of b and c (possibly empty).
func (b AABB) Intersect(c AABB) AABB {
	return AABB{Min: b.Min.Max(c.Min), Max: b.Max.Min(c.Max)}
}

// Expand grows the box by d in every direction.
func (b AABB) Expand(d float64) AABB {
	e := Vec3{d, d, d}
	return AABB{Min: b.Min.Sub(e), Max: b.Max.Add(e)}
}

// AddPoint returns the smallest box containing b and the point p.
func (b AABB) AddPoint(p Vec3) AABB {
	if b.IsEmpty() {
		return AABB{Min: p, Max: p}
	}
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Transform returns the AABB of the image of b under the affine map a.
func (b AABB) Transform(a Affine) AABB {
	if b.IsEmpty() {
		return b
	}
	out := EmptyAABB()
	for i := 0; i < 8; i++ {
		c := Vec3{b.Min.X, b.Min.Y, b.Min.Z}
		if i&1 != 0 {
			c.X = b.Max.X
		}
		if i&2 != 0 {
			c.Y = b.Max.Y
		}
		if i&4 != 0 {
			c.Z = b.Max.Z
		}
		out = out.AddPoint(a.Apply(c))
	}
	return out
}
