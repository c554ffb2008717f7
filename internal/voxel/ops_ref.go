package voxel

// Per-voxel reference implementations of Surface and Interior, kept
// verbatim from the original code. They are the ground truth for the
// word-parallel kernels in ops.go: the parity test suite asserts
// bit-identical results on randomized grids. They are not used on any
// production path.

// surfaceRef is the per-voxel reference for Surface.
func surfaceRef(g *Grid) *Grid {
	s := NewGrid(g.Nx, g.Ny, g.Nz)
	s.Origin, s.CellSize = g.Origin, g.CellSize
	g.ForEach(func(x, y, z int) {
		for _, d := range neighbors6 {
			if !g.Get(x+d[0], y+d[1], z+d[2]) {
				s.Set(x, y, z, true)
				return
			}
		}
	})
	return s
}

// interiorRef is the per-voxel reference for Interior.
func interiorRef(g *Grid) *Grid {
	i := g.Clone()
	i.Subtract(surfaceRef(g))
	return i
}
