package voxel

import (
	"runtime"
	"testing"

	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/mesh"
)

// benchGrid is a hollowed sphere shell at the paper's histogram
// resolution — representative of a voxelized CAD part (occupied surface +
// interior, enclosed cavity).
func benchGrid(r int) *Grid {
	s := csg.NewSphere(geom.V(0, 0, 0), 0.95)
	bounds := geom.AABB{Min: geom.V(-1, -1, -1), Max: geom.V(1, 1, 1)}
	g := VoxelizeSolidWorkers(s, bounds, r, 1)
	hole := VoxelizeSolidWorkers(csg.NewSphere(geom.V(0, 0, 0), 0.55), bounds, r, 1)
	g.Subtract(hole)
	return g
}

func BenchmarkSurface(b *testing.B) {
	g := benchGrid(30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Surface(g)
	}
}

func BenchmarkSurfaceRef(b *testing.B) {
	g := benchGrid(30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		surfaceRef(g)
	}
}

func benchSolid() (csg.Solid, geom.AABB) {
	s := csg.Difference(
		csg.NewSphere(geom.V(0, 0, 0), 0.95),
		csg.NewCylinder(geom.V(0, 0, 0), 2, 0.3, 2),
	)
	return s, geom.AABB{Min: geom.V(-1, -1, -1), Max: geom.V(1, 1, 1)}
}

func BenchmarkVoxelizeSolid(b *testing.B) {
	s, bounds := benchSolid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VoxelizeSolidWorkers(s, bounds, 30, 1)
	}
}

func BenchmarkVoxelizeSolidParallel(b *testing.B) {
	s, bounds := benchSolid()
	w := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VoxelizeSolidWorkers(s, bounds, 30, w)
	}
}

func benchMesh() (*mesh.Mesh, geom.AABB) {
	m := mesh.NewBox(geom.V(-0.9, -0.7, -0.8), geom.V(0.8, 0.9, 0.7))
	m.Merge(mesh.NewBox(geom.V(-0.3, -0.3, -1), geom.V(0.3, 0.3, 1)))
	return m, geom.AABB{Min: geom.V(-1, -1, -1), Max: geom.V(1, 1, 1)}
}

func BenchmarkVoxelizeMesh(b *testing.B) {
	m, bounds := benchMesh()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VoxelizeMeshWorkers(m, bounds, 30, 1)
	}
}

func BenchmarkVoxelizeMeshParallel(b *testing.B) {
	m, bounds := benchMesh()
	w := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VoxelizeMeshWorkers(m, bounds, 30, w)
	}
}
