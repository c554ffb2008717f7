// Package mesh provides triangle meshes, STL import/export and primitive
// mesh builders. CAD systems exchange tessellated parts (e.g. STL); the
// voxel package can convert watertight meshes into the voxel
// approximations the paper's similarity models operate on.
package mesh

import (
	"github.com/voxset/voxset/internal/geom"
)

// Triangle is a single oriented triangle.
type Triangle struct {
	A, B, C geom.Vec3
}

// Normal returns the (non-unit) face normal (B-A) × (C-A).
func (t Triangle) Normal() geom.Vec3 {
	return t.B.Sub(t.A).Cross(t.C.Sub(t.A))
}

// Area returns the triangle area.
func (t Triangle) Area() float64 { return t.Normal().Norm() / 2 }

// Mesh is a triangle soup. For voxelization it must be watertight
// (every ray in general position crosses the surface an even number of
// times).
type Mesh struct {
	Name      string
	Triangles []Triangle
}

// Triangles is a read-only sequence of triangles: a *Mesh, or a binary
// STL body read in place (ViewSTL). The voxelizer reads either.
type Triangles interface {
	Len() int
	Triangle(i int) Triangle
}

// Len returns the triangle count; a nil mesh has none.
func (m *Mesh) Len() int {
	if m == nil {
		return 0
	}
	return len(m.Triangles)
}

// Triangle returns the i-th triangle.
func (m *Mesh) Triangle(i int) Triangle { return m.Triangles[i] }

// ForEach calls fn with every triangle of ts in order. A *Mesh's
// triangles are passed in place and a binary STL view's decoded into one
// reused value, with no call through the interface per triangle: the
// voxelizer's loops over an upload would pay one on every triangle.
func ForEach(ts Triangles, fn func(t *Triangle)) {
	switch m := ts.(type) {
	case *Mesh:
		for i := 0; i < m.Len(); i++ { // a nil *Mesh has none
			fn(&m.Triangles[i])
		}
	case *stlView:
		var t Triangle
		for i, n := 0, m.Len(); i < n; i++ {
			t = m.Triangle(i)
			fn(&t)
		}
	default:
		for i, n := 0, ts.Len(); i < n; i++ {
			t := ts.Triangle(i)
			fn(&t)
		}
	}
}

// Bounds returns the AABB of the whole mesh (empty for no triangles).
func (m *Mesh) Bounds() geom.AABB {
	b, _ := FiniteBounds(m)
	return b
}

// FiniteBounds returns the AABB of ts (empty for no triangles) and
// whether every vertex coordinate is a finite number — the precondition
// of voxelization — in one pass of plain comparisons. The STL parsers
// guarantee finiteness; a mesh built in memory need not hold it. A
// binary STL view returns what its own check found in that pass.
func FiniteBounds(ts Triangles) (b geom.AABB, finite bool) {
	if v, ok := ts.(*stlView); ok {
		return v.bounds, true // found by the view's own check
	}
	b = geom.EmptyAABB()
	var nan float64 // stays 0 while every vertex is finite
	ForEach(ts, func(t *Triangle) {
		for _, v := range [...]*geom.Vec3{&t.A, &t.B, &t.C} {
			extend(&b.Min.X, &b.Max.X, v.X)
			extend(&b.Min.Y, &b.Max.Y, v.Y)
			extend(&b.Min.Z, &b.Max.Z, v.Z)
			nan += nanUnlessFinite(*v)
		}
	})
	return b, nan == 0
}

// nanUnlessFinite is 0 for a finite vector and NaN otherwise: x − x is NaN
// for x = NaN or ±Inf.
func nanUnlessFinite(v geom.Vec3) float64 { return (v.X - v.X) + (v.Y - v.Y) + (v.Z - v.Z) }

func extend(lo, hi *float64, v float64) {
	if v < *lo {
		*lo = v
	}
	if v > *hi {
		*hi = v
	}
}

// SurfaceArea returns the total triangle area.
func (m *Mesh) SurfaceArea() float64 {
	sum := 0.0
	for _, t := range m.Triangles {
		sum += t.Area()
	}
	return sum
}

// Volume returns the signed volume enclosed by the mesh using the
// divergence theorem. It is meaningful only for watertight, consistently
// oriented meshes (positive for outward-facing normals).
func (m *Mesh) Volume() float64 {
	sum := 0.0
	for _, t := range m.Triangles {
		sum += t.A.Dot(t.B.Cross(t.C))
	}
	return sum / 6
}

// Transform returns a new mesh with every vertex mapped through a.
// If the transform is orientation-reversing (negative determinant), the
// winding of every triangle is flipped to keep normals outward.
func (m *Mesh) Transform(a geom.Affine) *Mesh {
	out := &Mesh{Name: m.Name, Triangles: make([]Triangle, len(m.Triangles))}
	flip := a.M.Det() < 0
	for i, t := range m.Triangles {
		nt := Triangle{A: a.Apply(t.A), B: a.Apply(t.B), C: a.Apply(t.C)}
		if flip {
			nt.B, nt.C = nt.C, nt.B
		}
		out.Triangles[i] = nt
	}
	return out
}

// Merge appends all triangles of other to m.
func (m *Mesh) Merge(other *Mesh) {
	m.Triangles = append(m.Triangles, other.Triangles...)
}

// addQuad appends the quad (a,b,c,d) as two triangles with consistent
// winding.
func (m *Mesh) addQuad(a, b, c, d geom.Vec3) {
	m.Triangles = append(m.Triangles,
		Triangle{a, b, c},
		Triangle{a, c, d},
	)
}
