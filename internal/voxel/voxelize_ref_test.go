package voxel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/mesh"
)

// TestVoxelizeMeshMatchesRef pins VoxelizeMeshWorkers to the bucket
// voxelizer it replaced, bit for bit, at worker counts {1, 2, 4, r+1}:
// primitives, voxel-surface meshes of random and CAD grids, and triangle
// soups built to hit the corner cases — vertices exactly on the nudged
// ray lines, vertical, sliver and duplicate triangles, a mesh whose
// bounds are one point.
func TestVoxelizeMeshMatchesRef(t *testing.T) {
	type meshCase struct {
		name   string
		m      *mesh.Mesh
		bounds geom.AABB
		rs     []int
	}
	var cases []meshCase
	add := func(m *mesh.Mesh, bounds geom.AABB, rs ...int) {
		cases = append(cases, meshCase{m.Name, m, bounds, rs})
	}
	for _, m := range []*mesh.Mesh{
		mesh.NewSphere(geom.V(0.1, -0.2, 0.05), 1, 48, 24),
		mesh.NewTorus(geom.V(0, 0, 0), 2, 0.5, 48, 24),
		mesh.NewBox(geom.V(-1, -0.7, -0.4), geom.V(1.1, 0.9, 0.6)),
		mesh.NewCylinder(geom.V(0.2, 0, 0), 0.6, 2, 32),
	} {
		add(m, m.Bounds(), 8, 15, 31)
		add(m, m.Bounds().Expand(0.2), 16)
	}
	for seed := int64(1); seed <= 3; seed++ {
		m := ToMesh(randomGrid(seed, 30), fmt.Sprintf("random-%d", seed))
		add(m, m.Bounds(), 8, 15, 16, 31)
	}
	for _, p := range cadgen.AircraftDataset(11, 4) {
		m := ToMesh(VoxelizeSolid(p.Solid, p.Solid.Bounds(), 30), p.Name)
		add(m, m.Bounds(), 8, 15, 16, 31)
	}

	// Soups over the ray lattice of a 15³ placement of the unit box.
	lattice := geom.Box(geom.V(-1, -1, -1), geom.V(1, 1, 1))
	fit := FitCube(lattice, 15)
	rx := func(i int) float64 { return fit.CellCenter(i, i, 0).X + 1e-7*fit.CellSize }
	ry := func(j int) float64 { return fit.CellCenter(j, j, 0).Y + 1e-7*2.3*fit.CellSize }
	onRays := mesh.NewBox(geom.V(rx(3), ry(4), -0.5), geom.V(rx(10), ry(11), 0.7))
	onRays.Name = "box-on-ray-lines"
	add(onRays, lattice, 15)
	rng := rand.New(rand.NewSource(5))
	vertex := func() geom.Vec3 { return geom.V(rx(rng.Intn(15)), ry(rng.Intn(15)), 2*rng.Float64()-1) }
	soup := &mesh.Mesh{Name: "soup"}
	for i := 0; i < 600; i++ {
		tr := mesh.Triangle{A: vertex(), B: vertex(), C: vertex()}
		switch i % 6 {
		case 1: // vertical: A and B on one ray line
			tr.B.X, tr.B.Y = tr.A.X, tr.A.Y
		case 2: // vertical: C on segment AB in projection
			tr.C = tr.A.Add(tr.B.Sub(tr.A).Scale(0.5))
			tr.C.Z = 2*rng.Float64() - 1
		case 3: // sliver: C a hair off segment AB
			tr.C = tr.A.Add(tr.B.Sub(tr.A).Scale(0.25)).Add(geom.V(1e-12, -1e-12, 0.3))
		case 4: // duplicate of the previous triangle
			tr = soup.Triangles[i-1]
		}
		soup.Triangles = append(soup.Triangles, tr)
	}
	add(soup, lattice, 15)
	add(soup, soup.Bounds(), 8, 16)
	p := geom.V(0.3, -0.2, 0.1)
	point := &mesh.Mesh{Name: "point", Triangles: []mesh.Triangle{{A: p, B: p, C: p}, {A: p, B: p, C: p}}}
	add(point, point.Bounds(), 1, 8)

	occupied := 0
	for _, c := range cases {
		for _, r := range c.rs {
			want := voxelizeMeshRef(c.m, c.bounds, r)
			occupied += want.Count()
			for _, w := range []int{1, 2, 4, r + 1} {
				got := VoxelizeMeshWorkers(c.m, c.bounds, r, w)
				got.debugCheckTailBits()
				if !want.Equal(got) || got.Origin != want.Origin || got.CellSize != want.CellSize {
					t.Fatalf("%s r=%d workers=%d: %d voxels (%d differ), reference %d",
						c.name, r, w, got.Count(), want.XORCount(got), want.Count())
				}
			}
		}
	}
	if occupied == 0 {
		t.Fatal("every reference grid is empty: the differential compares nothing")
	}
}

// voxelizeMeshRef is the per-column bucket voxelizer VoxelizeMeshWorkers
// replaced, kept verbatim (sequential) as the ground truth for the
// differential tests: every triangle — zero projected area included — is
// appended to each column its bounds reach, and each column then tests its
// ray against its own list.
func voxelizeMeshRef(m *mesh.Mesh, bounds geom.AABB, r int) *Grid {
	g := NewCube(r)
	fitGridToBounds(g, bounds, r)
	cols := make([][]int32, r*r)
	for ti, tr := range m.Triangles {
		b := geom.AABB{Min: tr.A.Min(tr.B).Min(tr.C), Max: tr.A.Max(tr.B).Max(tr.C)}
		x0 := clampIdx(int(math.Floor((b.Min.X-g.Origin.X)/g.CellSize-0.5)), 0, r-1)
		x1 := clampIdx(int(math.Ceil((b.Max.X-g.Origin.X)/g.CellSize)), 0, r-1)
		y0 := clampIdx(int(math.Floor((b.Min.Y-g.Origin.Y)/g.CellSize-0.5)), 0, r-1)
		y1 := clampIdx(int(math.Ceil((b.Max.Y-g.Origin.Y)/g.CellSize)), 0, r-1)
		for y := y0; y <= y1; y++ {
			row := y * r
			for x := x0; x <= x1; x++ {
				cols[row+x] = append(cols[row+x], int32(ti))
			}
		}
	}
	depths := make([]float64, 0, 64)
	for y := 0; y < r; y++ {
		for x := 0; x < r; x++ {
			depths = scanColumnRef(m, g, cols[y*r+x], x, y, depths, g.words)
		}
	}
	return g
}

func scanColumnRef(m *mesh.Mesh, g *Grid, tris []int32, x, y int, depths []float64, dst []uint64) []float64 {
	if len(tris) == 0 {
		return depths
	}
	const nudge = 1e-7
	r := g.Nx
	c := g.CellCenter(x, y, 0)
	rx := c.X + nudge*g.CellSize
	ry := c.Y + nudge*2.3*g.CellSize
	depths = depths[:0]
	for _, ti := range tris {
		if t, hit := rayZTriangle(rx, ry, m.Triangles[ti]); hit {
			depths = append(depths, t)
		}
	}
	if len(depths) == 0 {
		return depths
	}
	sort.Float64s(depths)
	depths = dedupClose(depths, 1e-9*g.CellSize)
	ci := 0
	colBase := x + r*y
	for z := 0; z < r; z++ {
		zc := g.Origin.Z + (float64(z)+0.5)*g.CellSize
		for ci < len(depths) && depths[ci] < zc {
			ci++
		}
		if ci%2 == 1 {
			i := colBase + r*r*z
			dst[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return depths
}

// rayZTriangle intersects the vertical line (rx, ry, ·) with the triangle
// and returns the z coordinate of the crossing.
func rayZTriangle(rx, ry float64, tr mesh.Triangle) (float64, bool) {
	ax, ay := tr.A.X, tr.A.Y
	bx, by := tr.B.X, tr.B.Y
	cx, cy := tr.C.X, tr.C.Y
	d := (by-cy)*(ax-cx) + (cx-bx)*(ay-cy)
	if d == 0 {
		return 0, false // degenerate in projection
	}
	l1 := ((by-cy)*(rx-cx) + (cx-bx)*(ry-cy)) / d
	l2 := ((cy-ay)*(rx-cx) + (ax-cx)*(ry-cy)) / d
	l3 := 1 - l1 - l2
	if l1 < 0 || l2 < 0 || l3 < 0 {
		return 0, false
	}
	return l1*tr.A.Z + l2*tr.B.Z + l3*tr.C.Z, true
}
