package voxel

import "github.com/voxset/voxset/internal/geom"

// neighbors6 lists the face-adjacent offsets.
var neighbors6 = [6][3]int{
	{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
}

// Surface returns the set V̄ of surface voxels: occupied voxels with at
// least one empty face neighbor (voxels at the grid border count as
// surface when the neighbor would fall outside). Computed word-parallel
// as occupied &^ (AND of the 6 shifted neighbor images).
func Surface(g *Grid) *Grid {
	s := NewGrid(g.Nx, g.Ny, g.Nz)
	s.Origin, s.CellSize = g.Origin, g.CellSize
	tmp := make([]uint64, len(g.words))
	g.interiorWords(s.words, tmp, g.words)
	for i, w := range g.words {
		s.words[i] = w &^ s.words[i]
	}
	return s
}

// Interior returns the set V̇ of interior voxels: occupied voxels all of
// whose face neighbors are occupied. Surface(g) ∪ Interior(g) = g and the
// two are disjoint.
func Interior(g *Grid) *Grid {
	out := NewGrid(g.Nx, g.Ny, g.Nz)
	out.Origin, out.CellSize = g.Origin, g.CellSize
	tmp := make([]uint64, len(g.words))
	g.interiorWords(out.words, tmp, g.words)
	return out
}

// ApplySym returns a copy of the grid transformed by the cube symmetry s
// (rotation or rotoreflection about the grid center). The grid must be
// cubic.
func ApplySym(g *Grid, s geom.CubeSym) *Grid {
	if g.Nx != g.Ny || g.Ny != g.Nz {
		panic("voxel: ApplySym requires a cubic grid")
	}
	r := g.Nx
	out := NewCube(r)
	out.Origin, out.CellSize = g.Origin, g.CellSize
	// Work in centered coordinates c = 2·x - (r-1) ∈ {-(r-1), ..., r-1}
	// (odd steps) so the symmetry maps the lattice onto itself exactly.
	g.ForEach(func(x, y, z int) {
		cx, cy, cz := 2*x-(r-1), 2*y-(r-1), 2*z-(r-1)
		tx, ty, tz := s.ApplyInts(cx, cy, cz)
		out.Set((tx+r-1)/2, (ty+r-1)/2, (tz+r-1)/2, true)
	})
	return out
}

// Components labels the 6-connected components of the occupied voxels.
// It returns the number of components and a label grid (label[i] in
// 1..n for occupied voxels, 0 for empty), flattened in grid index order.
// Labels are assigned in grid index order of each component's first
// voxel; the fill is a per-voxel stack flood.
func Components(g *Grid) (n int, labels []int32) {
	labels = make([]int32, g.Len())
	var stack [][3]int
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				if !g.Get(x, y, z) || labels[g.index(x, y, z)] != 0 {
					continue
				}
				n++
				stack = append(stack[:0], [3]int{x, y, z})
				labels[g.index(x, y, z)] = int32(n)
				for len(stack) > 0 {
					c := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, d := range neighbors6 {
						nx, ny, nz := c[0]+d[0], c[1]+d[1], c[2]+d[2]
						if g.Get(nx, ny, nz) && labels[g.index(nx, ny, nz)] == 0 {
							labels[g.index(nx, ny, nz)] = int32(n)
							stack = append(stack, [3]int{nx, ny, nz})
						}
					}
				}
			}
		}
	}
	return n, labels
}

// LargestComponent returns a grid containing only the largest 6-connected
// component (ties broken by lowest label). An empty grid returns an empty
// clone.
func LargestComponent(g *Grid) *Grid {
	n, labels := Components(g)
	out := NewGrid(g.Nx, g.Ny, g.Nz)
	out.Origin, out.CellSize = g.Origin, g.CellSize
	if n == 0 {
		return out
	}
	counts := make([]int, n+1)
	for _, l := range labels {
		counts[l]++
	}
	best := 1
	for l := 2; l <= n; l++ {
		if counts[l] > counts[best] {
			best = l
		}
	}
	g.ForEach(func(x, y, z int) {
		if labels[g.index(x, y, z)] == int32(best) {
			out.Set(x, y, z, true)
		}
	})
	return out
}

// OccupiedCenters returns the world coordinates of all occupied voxel
// centers.
func OccupiedCenters(g *Grid) []geom.Vec3 {
	pts := make([]geom.Vec3, 0, g.Count())
	g.ForEach(func(x, y, z int) {
		pts = append(pts, g.CellCenter(x, y, z))
	})
	return pts
}
