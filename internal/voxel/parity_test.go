package voxel

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/mesh"
)

// parityDims exercises the word-level edge cases: a single cell, rows
// narrower and wider than one word, Nx exactly 64 and straddling 64,
// non-cubic shapes, and grids whose total bit count is and is not a
// multiple of 64.
var parityDims = [][3]int{
	{1, 1, 1},
	{5, 3, 2},
	{1, 7, 9},
	{31, 9, 4},
	{33, 17, 2},
	{64, 4, 4},
	{65, 3, 3},
	{70, 5, 9},
	{30, 30, 30},
}

func randDimGrid(seed int64, nx, ny, nz int, density float64) *Grid {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if rng.Float64() < density {
					g.Set(x, y, z, true)
				}
			}
		}
	}
	return g
}

// forEachParityGrid runs fn over the randomized parity corpus: every
// dimension triple at sparse, medium and dense occupancy, plus the empty
// and full grids.
func forEachParityGrid(t *testing.T, fn func(t *testing.T, g *Grid)) {
	for _, d := range parityDims {
		for i, density := range []float64{0, 0.05, 0.3, 0.7, 1} {
			g := randDimGrid(int64(31*i)+int64(d[0])*1009, d[0], d[1], d[2], density)
			t.Run(fmt.Sprintf("%dx%dx%d_d%.2f", d[0], d[1], d[2], density), func(t *testing.T) {
				fn(t, g)
			})
		}
	}
}

func requireEqual(t *testing.T, want, got *Grid, what string) {
	t.Helper()
	got.debugCheckTailBits()
	if !want.Equal(got) {
		t.Fatalf("%s: word-parallel result differs from reference (grid %d×%d×%d, %d vs %d voxels)",
			what, want.Nx, want.Ny, want.Nz, got.Count(), want.Count())
	}
}

func TestMorphologyParity(t *testing.T) {
	forEachParityGrid(t, func(t *testing.T, g *Grid) {
		requireEqual(t, surfaceRef(g), Surface(g), "Surface")
		requireEqual(t, interiorRef(g), Interior(g), "Interior")
		g.debugCheckTailBits() // inputs must come through untouched
	})
}

// componentsUnionFind labels the 6-connected components by union-find
// over the +x, +y and +z face pairs, then numbers the roots in grid index
// order of their first voxel: an algorithm independent of the flood fill
// in Components, with the labelling Components must produce.
func componentsUnionFind(g *Grid) (n int, labels []int32) {
	parent := make([]int, g.Len())
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	g.ForEach(func(x, y, z int) {
		for _, d := range [3][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
			if g.Get(x+d[0], y+d[1], z+d[2]) {
				a, b := find(g.index(x, y, z)), find(g.index(x+d[0], y+d[1], z+d[2]))
				parent[max(a, b)] = min(a, b)
			}
		}
	})
	labels = make([]int32, g.Len())
	rootLabel := map[int]int32{}
	g.ForEach(func(x, y, z int) {
		r := find(g.index(x, y, z))
		if _, ok := rootLabel[r]; !ok {
			n++
			rootLabel[r] = int32(n)
		}
		labels[g.index(x, y, z)] = rootLabel[r]
	})
	return n, labels
}

func TestComponentsParity(t *testing.T) {
	forEachParityGrid(t, func(t *testing.T, g *Grid) {
		wantN, wantLabels := componentsUnionFind(g)
		gotN, gotLabels := Components(g)
		if wantN != gotN {
			t.Fatalf("Components: got %d components, union-find found %d", gotN, wantN)
		}
		for i := range wantLabels {
			if wantLabels[i] != gotLabels[i] {
				t.Fatalf("Components: label mismatch at index %d: got %d, want %d",
					i, gotLabels[i], wantLabels[i])
			}
		}
	})
}

// TestShiftNeighborMatchesGet pins the shifted-word primitive itself
// against per-voxel neighbor reads.
func TestShiftNeighborMatchesGet(t *testing.T) {
	forEachParityGrid(t, func(t *testing.T, g *Grid) {
		dst := make([]uint64, len(g.words))
		for dir, d := range neighbors6 {
			g.shiftNeighbor(dst, g.words, dir)
			for z := 0; z < g.Nz; z++ {
				for y := 0; y < g.Ny; y++ {
					for x := 0; x < g.Nx; x++ {
						i := g.index(x, y, z)
						got := dst[i>>6]&(1<<(uint(i)&63)) != 0
						want := g.Get(x+d[0], y+d[1], z+d[2])
						if got != want {
							t.Fatalf("shiftNeighbor dir %d at (%d,%d,%d): got %v, want %v",
								dir, x, y, z, got, want)
						}
					}
				}
			}
		}
	})
}

// TestVoxelizeWorkersParity pins the parallel voxelizers to their
// sequential output for several worker counts, including more workers
// than slabs.
func TestVoxelizeWorkersParity(t *testing.T) {
	s := csg.NewSphere(geom.V(0.2, -0.1, 0.3), 0.9)
	bounds := geom.AABB{Min: geom.V(-1, -1, -1), Max: geom.V(1, 1, 1)}
	m := mesh.NewBox(geom.V(-0.8, -0.5, -0.6), geom.V(0.7, 0.9, 0.4))
	for _, r := range []int{7, 15, 30} {
		seqSolid := VoxelizeSolidWorkers(s, bounds, r, 1)
		seqMesh := VoxelizeMeshWorkers(m, bounds, r, 1)
		for _, w := range []int{2, 3, 8, 64} {
			if got := VoxelizeSolidWorkers(s, bounds, r, w); !seqSolid.Equal(got) {
				t.Fatalf("VoxelizeSolidWorkers r=%d workers=%d differs from sequential", r, w)
			}
			if got := VoxelizeMeshWorkers(m, bounds, r, w); !seqMesh.Equal(got) {
				t.Fatalf("VoxelizeMeshWorkers r=%d workers=%d differs from sequential", r, w)
			}
		}
		seqSolid.debugCheckTailBits()
		seqMesh.debugCheckTailBits()
	}
}

// TestSolidAngleFlatParity checks the bounds-check-free kernel path
// against the general one on every interior-safe voxel.
func TestSolidAngleFlatParity(t *testing.T) {
	k := NewSphereKernel(3)
	g := randDimGrid(77, 16, 12, 14, 0.4)
	offsets, ir := k.FlatOffsets(g.Nx, g.Ny)
	for z := ir; z < g.Nz-ir; z++ {
		for y := ir; y < g.Ny-ir; y++ {
			for x := ir; x < g.Nx-ir; x++ {
				want := k.SolidAngle(g, x, y, z)
				got := k.SolidAngleFlat(g, g.FlatIndex(x, y, z), offsets)
				if want != got {
					t.Fatalf("SolidAngleFlat at (%d,%d,%d): got %v, want %v", x, y, z, got, want)
				}
			}
		}
	}
}

// TestForEachSparseSkip checks that ForEach visits exactly the occupied
// voxels in index order on a grid with large all-zero stretches.
func TestForEachSparseSkip(t *testing.T) {
	g := NewGrid(70, 5, 9)
	want := [][3]int{{0, 0, 0}, {69, 0, 0}, {3, 4, 0}, {68, 2, 5}, {69, 4, 8}}
	for _, c := range want {
		g.Set(c[0], c[1], c[2], true)
	}
	var got [][3]int
	g.ForEach(func(x, y, z int) { got = append(got, [3]int{x, y, z}) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d voxels, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if g.index(a[0], a[1], a[2]) >= g.index(b[0], b[1], b[2]) {
			t.Fatalf("ForEach out of index order: %v before %v", a, b)
		}
	}
	for _, c := range got {
		if !g.Get(c[0], c[1], c[2]) {
			t.Fatalf("ForEach visited empty voxel %v", c)
		}
	}
}

// TestSampleOccupiedBoundsParity pins the sweep-based bounds sampler
// against an unculled full scan followed by OccupiedBounds, including the
// empty case, on solids that are off-center, hollow, and anisotropic, on
// solids declaring loose or elongated bounds, and on placements that only
// partly overlap the solid's declared box (or miss it).
func TestSampleOccupiedBoundsParity(t *testing.T) {
	bounds := geom.Box(geom.V(-1.5, -1.2, -1.3), geom.V(1.1, 1.4, 1.2))
	for si, c := range cullCases() {
		for _, gb := range []geom.AABB{bounds, c.s.Bounds(), c.partial} {
			for _, r := range []int{8, 17, 48} {
				g := FitCube(gb, r)
				wantMn, wantMx, wantOK := scanSolid(c.s, g).OccupiedBounds()
				gotMn, gotMx, gotOK := g.SampleOccupiedBounds(c.s)
				if wantOK != gotOK || (wantOK && (wantMn != gotMn || wantMx != gotMx)) {
					t.Fatalf("solid %d (%s) grid %v r=%d: sweep bounds (%v, %v, %v), full scan (%v, %v, %v)",
						si, c.name, gb, r, gotMn, gotMx, gotOK, wantMn, wantMx, wantOK)
				}
			}
		}
	}
}
