package meshquery

import (
	"bytes"
	"sync"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/voxel"
)

// uploadBodies returns the 256 binary STL bodies the mesh-upload benchmark
// workload sends at seed 1, generated the same way: Aircraft parts drawn
// from seed^"mesh", voxelized normalized at r = 30, the voxel surface
// written as STL, parts without a surface dropped.
var uploadBodies = sync.OnceValue(func() [][]byte {
	const seed, meshes, meshRes = 1, 256, 30
	parts := cadgen.AircraftDataset(seed^0x6d657368, meshes+meshes/8+1)
	var bodies [][]byte
	for _, p := range parts {
		if len(bodies) == meshes {
			break
		}
		g, _ := normalize.VoxelizeNormalized(p.Solid, meshRes)
		m := voxel.ToMesh(g, p.Name)
		if len(m.Triangles) == 0 {
			continue
		}
		var buf bytes.Buffer
		if err := mesh.WriteSTL(&buf, m); err != nil {
			panic(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies
})

var (
	sinkMesh *mesh.Mesh
	sinkGrid *voxel.Grid
	sinkSet  [][]float64
)

// BenchmarkMeshExtract prices the three stages of a /query/mesh upload
// before the search, each over the 256 upload bodies in turn (one input
// repeated would let the branch predictor learn it): parse, voxelize at
// the served cover resolution, and the greedy cover extraction; then the
// served path whole — the body read in place by mesh.ViewSTL, voxelized
// and covered.
func BenchmarkMeshExtract(b *testing.B) {
	cfg := DefaultConfig()
	bodies := uploadBodies()
	meshes := make([]*mesh.Mesh, len(bodies))
	grids := make([]*voxel.Grid, len(bodies))
	for i, body := range bodies {
		m, err := mesh.ParseSTL(body)
		if err != nil {
			b.Fatal(err)
		}
		meshes[i] = m
		if grids[i], err = Voxelize(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := mesh.ParseSTL(bodies[i%len(bodies)])
			if err != nil {
				b.Fatal(err)
			}
			sinkMesh = m
		}
	})
	b.Run("voxelize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := Voxelize(meshes[i%len(meshes)], cfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkGrid = g
		}
	})
	b.Run("cover", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSet = CoverSet(grids[i%len(grids)], cfg.Covers)
		}
	})
	b.Run("served", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := mesh.ViewSTL(bodies[i%len(bodies)])
			if err != nil {
				b.Fatal(err)
			}
			g, err := Voxelize(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkSet = CoverSet(g, cfg.Covers)
		}
	})
}
