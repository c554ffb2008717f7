// Package voxel implements the voxel substrate of the paper: dense bit
// grids, voxelization of CSG solids and watertight triangle meshes,
// surface/interior classification, grid symmetries, sphere kernels for the
// solid-angle model and connected components.
//
// A Grid stores occupancy for N = Nx·Ny·Nz cells in a packed bitset. The
// paper works with cubic grids of resolution r (r = 15 for the cover
// sequence and vector set models, r = 30 for the volume and solid-angle
// models).
package voxel

import (
	"fmt"
	"math/bits"

	"github.com/voxset/voxset/internal/geom"
)

// Grid is a dense 3-D occupancy bit grid. The voxel (x, y, z) with
// 0 ≤ x < Nx, 0 ≤ y < Ny, 0 ≤ z < Nz is addressed as
// x + Nx·(y + Ny·z). Grids also carry a world-space placement (Origin,
// CellSize) so voxel centers can be mapped back to model coordinates.
type Grid struct {
	Nx, Ny, Nz int
	// Origin is the world position of the minimum corner of voxel (0,0,0).
	Origin geom.Vec3
	// CellSize is the world edge length of one voxel.
	CellSize float64

	words []uint64
}

// NewGrid returns an empty grid with the given dimensions, unit cells and
// origin at the world origin.
func NewGrid(nx, ny, nz int) *Grid {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("voxel: invalid grid dimensions %d×%d×%d", nx, ny, nz))
	}
	n := nx * ny * nz
	return &Grid{
		Nx: nx, Ny: ny, Nz: nz,
		CellSize: 1,
		words:    make([]uint64, (n+63)/64),
	}
}

// NewCube returns an empty cubic grid of resolution r.
func NewCube(r int) *Grid { return NewGrid(r, r, r) }

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	c := *g
	c.words = make([]uint64, len(g.words))
	copy(c.words, g.words)
	return &c
}

// Len returns the total number of cells.
func (g *Grid) Len() int { return g.Nx * g.Ny * g.Nz }

// InBounds reports whether (x, y, z) addresses a cell of the grid.
func (g *Grid) InBounds(x, y, z int) bool {
	return x >= 0 && x < g.Nx && y >= 0 && y < g.Ny && z >= 0 && z < g.Nz
}

func (g *Grid) index(x, y, z int) int { return x + g.Nx*(y+g.Ny*z) }

// FlatIndex returns the packed bit index of voxel (x, y, z); the
// addressing contract consumers of FlatOffsets rely on.
func (g *Grid) FlatIndex(x, y, z int) int { return g.index(x, y, z) }

// Get reports whether voxel (x, y, z) is occupied. Out-of-bounds
// coordinates read as empty.
func (g *Grid) Get(x, y, z int) bool {
	if !g.InBounds(x, y, z) {
		return false
	}
	i := g.index(x, y, z)
	return g.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set writes the occupancy of voxel (x, y, z). Out-of-bounds writes panic.
func (g *Grid) Set(x, y, z int, v bool) {
	if !g.InBounds(x, y, z) {
		panic(fmt.Sprintf("voxel: Set(%d,%d,%d) out of bounds %d×%d×%d", x, y, z, g.Nx, g.Ny, g.Nz))
	}
	i := g.index(x, y, z)
	if v {
		g.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		g.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Count returns the number of occupied voxels.
func (g *Grid) Count() int {
	n := 0
	for _, w := range g.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no voxel is occupied.
func (g *Grid) Empty() bool {
	for _, w := range g.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear resets every voxel to empty.
func (g *Grid) Clear() {
	for i := range g.words {
		g.words[i] = 0
	}
}

// Equal reports whether g and h have identical dimensions and occupancy.
func (g *Grid) Equal(h *Grid) bool {
	if g.Nx != h.Nx || g.Ny != h.Ny || g.Nz != h.Nz {
		return false
	}
	// The last word may contain unused bits; both grids were produced via
	// Set, which never touches them, so direct comparison is safe.
	for i := range g.words {
		if g.words[i] != h.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every occupied voxel in index order. All-zero
// words are skipped wholesale and set bits of the rest are iterated via
// TrailingZeros64, so sparse grids pay for their population, not the full
// cell count.
func (g *Grid) ForEach(fn func(x, y, z int)) {
	nx, ny := g.Nx, g.Ny
	for wi, w := range g.words {
		if w == 0 {
			continue
		}
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			x := i % nx
			t := i / nx
			fn(x, t%ny, t/ny)
		}
	}
}

// OccupiedBounds returns the inclusive voxel-index bounding box of the
// occupied cells. ok is false for an empty grid.
func (g *Grid) OccupiedBounds() (min, max [3]int, ok bool) {
	min = [3]int{g.Nx, g.Ny, g.Nz}
	max = [3]int{-1, -1, -1}
	g.ForEach(func(x, y, z int) {
		c := [3]int{x, y, z}
		for i := 0; i < 3; i++ {
			if c[i] < min[i] {
				min[i] = c[i]
			}
			if c[i] > max[i] {
				max[i] = c[i]
			}
		}
	})
	return min, max, max[0] >= 0
}

// CellCenter returns the world coordinates of the center of voxel (x,y,z).
func (g *Grid) CellCenter(x, y, z int) geom.Vec3 {
	return g.Origin.Add(geom.V(
		(float64(x)+0.5)*g.CellSize,
		(float64(y)+0.5)*g.CellSize,
		(float64(z)+0.5)*g.CellSize,
	))
}

// Union sets every voxel occupied in h in g as well. Dimensions must match.
func (g *Grid) Union(h *Grid) {
	g.mustMatch(h)
	for i := range g.words {
		g.words[i] |= h.words[i]
	}
}

// Subtract clears every voxel of g that is occupied in h.
func (g *Grid) Subtract(h *Grid) {
	g.mustMatch(h)
	for i := range g.words {
		g.words[i] &^= h.words[i]
	}
}

// IntersectWith clears every voxel of g not occupied in h.
func (g *Grid) IntersectWith(h *Grid) {
	g.mustMatch(h)
	for i := range g.words {
		g.words[i] &= h.words[i]
	}
}

// XORCount returns |g XOR h|, the symmetric volume difference in voxels.
func (g *Grid) XORCount(h *Grid) int {
	g.mustMatch(h)
	n := 0
	for i := range g.words {
		n += bits.OnesCount64(g.words[i] ^ h.words[i])
	}
	return n
}

func (g *Grid) mustMatch(h *Grid) {
	if g.Nx != h.Nx || g.Ny != h.Ny || g.Nz != h.Nz {
		panic(fmt.Sprintf("voxel: grid dimension mismatch %d×%d×%d vs %d×%d×%d",
			g.Nx, g.Ny, g.Nz, h.Nx, h.Ny, h.Nz))
	}
}

// SetCuboid sets the occupancy of the inclusive voxel range
// [x0,x1]×[y0,y1]×[z0,z1], clipped to the grid.
func (g *Grid) SetCuboid(x0, y0, z0, x1, y1, z1 int, v bool) {
	x0, y0, z0 = maxInt(x0, 0), maxInt(y0, 0), maxInt(z0, 0)
	x1, y1, z1 = minInt(x1, g.Nx-1), minInt(y1, g.Ny-1), minInt(z1, g.Nz-1)
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				g.Set(x, y, z, v)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
