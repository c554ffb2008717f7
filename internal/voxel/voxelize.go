package voxel

import (
	"math"
	"sort"
	"sync"

	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/parallel"
)

// VoxelizeSolid samples the CSG solid on an r×r×r grid covering the given
// world bounds (cell centers are tested for membership). The returned grid
// carries Origin/CellSize so centers map back to world space. Cells are
// cubic: the world box is the cube centered on bounds with edge equal to
// the largest extent of bounds, so the object is never distorted
// anisotropically. Only cells whose center the solid's own declared
// bounds admit are tested (cellRange); the rest are empty without a
// Contains call, which changes no cell.
//
// The worker count follows the package-wide convention: sequential unless
// VOXSET_WORKERS is set; VoxelizeSolidWorkers takes an explicit count.
func VoxelizeSolid(s csg.Solid, bounds geom.AABB, r int) *Grid {
	return VoxelizeSolidWorkers(s, bounds, r, 0)
}

// VoxelizeSolidWorkers is VoxelizeSolid on a bounded worker pool: the
// z-planes the solid's bounds admit are split into slabs, each worker
// fills its slab into a private word buffer, and slabs merge by OR (slab
// boundaries share a word when r² is not a multiple of 64). Membership
// tests are per-cell, so the result is bit-identical at any worker count.
func VoxelizeSolidWorkers(s csg.Solid, bounds geom.AABB, r, workers int) *Grid {
	g := NewCube(r)
	fitGridToBounds(g, bounds, r)
	lo, hi, ok := g.cellRange(s.Bounds())
	if !ok {
		return g
	}
	nz := hi[2] - lo[2] + 1
	w := min(parallel.Workers(workers, 1), nz)
	if w <= 1 {
		for z := lo[2]; z <= hi[2]; z++ {
			for y := lo[1]; y <= hi[1]; y++ {
				for x := lo[0]; x <= hi[0]; x++ {
					if s.Contains(g.CellCenter(x, y, z)) {
						g.Set(x, y, z, true)
					}
				}
			}
		}
		return g
	}
	slab := r * r
	var mu sync.Mutex
	parallel.Run(w, func(worker int) {
		z0, z1 := parallel.Chunk(nz, w, worker)
		if z0 >= z1 {
			return
		}
		z0, z1 = z0+lo[2], z1+lo[2]
		wLo := (z0 * slab) >> 6
		wHi := (z1*slab + 63) / 64
		buf := make([]uint64, wHi-wLo)
		base := wLo << 6
		for z := z0; z < z1; z++ {
			for y := lo[1]; y <= hi[1]; y++ {
				rowBase := slab*z + r*y - base
				for x := lo[0]; x <= hi[0]; x++ {
					if s.Contains(g.CellCenter(x, y, z)) {
						i := rowBase + x
						buf[i>>6] |= 1 << (uint(i) & 63)
					}
				}
			}
		}
		mu.Lock()
		for j, bw := range buf {
			g.words[wLo+j] |= bw
		}
		mu.Unlock()
	})
	return g
}

// FitCube returns an empty r×r×r grid placed over the cubified bounds,
// with the same Origin/CellSize VoxelizeSolid would use.
func FitCube(bounds geom.AABB, r int) *Grid {
	g := NewCube(r)
	fitGridToBounds(g, bounds, r)
	return g
}

// SampleOccupiedBounds computes the occupied-cell bounding box that
// VoxelizeSolid over this grid's placement followed by OccupiedBounds
// would report, without materializing the grid: six directional plane
// sweeps prove the margin planes empty and stop at the first hit,
// restricting each later sweep to the ranges already established. Every
// tested cell center uses the same membership rule as VoxelizeSolid, and
// bounds do not depend on visit order, so the result is identical while
// the interior of the box is never sampled. Like VoxelizeSolid, the
// sweeps visit only the cells the solid's declared bounds admit
// (cellRange): planes and cells outside them are misses.
func (g *Grid) SampleOccupiedBounds(s csg.Solid) (mn, mx [3]int, ok bool) {
	lo, hi, ok := g.cellRange(s.Bounds())
	if !ok {
		return mn, mx, false
	}
	hit := func(x, y, z int) bool { return s.Contains(g.CellCenter(x, y, z)) }
	planeHasHit := func(axis, v, lo1, hi1, lo2, hi2 int) bool {
		for a := lo1; a <= hi1; a++ {
			for b := lo2; b <= hi2; b++ {
				var x, y, z int
				switch axis {
				case 0:
					x, y, z = v, a, b
				case 1:
					x, y, z = a, v, b
				default:
					x, y, z = a, b, v
				}
				if hit(x, y, z) {
					return true
				}
			}
		}
		return false
	}
	sweep := func(axis, lo1, hi1, lo2, hi2 int) (int, int, bool) {
		first := -1
		for v := lo[axis]; v <= hi[axis]; v++ {
			if planeHasHit(axis, v, lo1, hi1, lo2, hi2) {
				first = v
				break
			}
		}
		if first < 0 {
			return 0, 0, false
		}
		last := first
		for v := hi[axis]; v > first; v-- {
			if planeHasHit(axis, v, lo1, hi1, lo2, hi2) {
				last = v
				break
			}
		}
		return first, last, true
	}
	if mn[0], mx[0], ok = sweep(0, lo[1], hi[1], lo[2], hi[2]); !ok {
		return mn, mx, false
	}
	// Any occupied cell has x ∈ [mn[0], mx[0]], so the remaining sweeps
	// (which must find at least one hit) can skip the proven-empty ranges.
	mn[1], mx[1], _ = sweep(1, mn[0], mx[0], lo[2], hi[2])
	mn[2], mx[2], _ = sweep(2, mn[0], mx[0], mn[1], mx[1])
	return mn, mx, true
}

// boundsSlack is how far, relative to the largest coordinate magnitude
// involved, cellRange widens a solid's declared bounds before it rules
// cells out. Bounds and Contains reach a point through differently
// rounded affine maps (a transformed solid's box is its child's box mapped
// forward; a query point is mapped back), which disagree by a few ulps —
// ~1e-16 of the magnitude. The slack is far above that and far below a
// cell, so a point it rules out is outside the solid.
const boundsSlack = 1e-9

// cellRange returns, per axis, the inclusive range lo..hi of the cells of
// g whose center lies inside the box b widened by boundsSlack. By the
// csg.Solid contract a solid declaring b contains no point outside b, so
// every cell outside the range is empty and need not be tested. The range
// is conservative: it may keep a cell whose center is just outside b,
// never drop one whose center is on or inside it (faces are closed). ok is
// false when no cell remains. A NaN or infinite side of b leaves its axis
// unrestricted, and a grid placed at non-finite coordinates is not
// restricted at all.
func (g *Grid) cellRange(b geom.AABB) (lo, hi [3]int, ok bool) {
	dims := [3]int{g.Nx, g.Ny, g.Nz}
	hi = [3]int{g.Nx - 1, g.Ny - 1, g.Nz - 1}
	var from, to [3]float64
	mag := 0.0
	for a := 0; a < 3; a++ {
		o := g.Origin.Component(a)
		end := o + float64(dims[a])*g.CellSize
		if math.IsNaN(end) || math.IsInf(end, 0) || math.IsInf(o, 0) {
			return [3]int{}, hi, true
		}
		from[a], to[a] = b.Min.Component(a), b.Max.Component(a)
		if math.IsNaN(from[a]) {
			from[a] = math.Inf(-1)
		}
		if math.IsNaN(to[a]) {
			to[a] = math.Inf(1)
		}
		for _, v := range [...]float64{from[a], to[a], o, end} {
			if !math.IsInf(v, 0) {
				mag = max(mag, math.Abs(v))
			}
		}
	}
	slack := boundsSlack * mag
	for a := 0; a < 3; a++ {
		n, o, lw, hw := dims[a], g.Origin.Component(a), from[a]-slack, to[a]+slack
		// The expression CellCenter computes, so the range is decided on
		// the very coordinates Contains would be asked about.
		center := func(i int) float64 { return o + (float64(i)+0.5)*g.CellSize }
		l := clampCell(math.Ceil((lw-o)/g.CellSize-0.5), n)
		h := clampCell(math.Floor((hw-o)/g.CellSize-0.5)+1, n) - 1
		for l > 0 && center(l-1) >= lw {
			l--
		}
		for l < n && center(l) < lw {
			l++
		}
		for h < n-1 && center(h+1) <= hw {
			h++
		}
		for h >= 0 && center(h) > hw {
			h--
		}
		if l > h {
			return lo, hi, false
		}
		lo[a], hi[a] = l, h
	}
	return lo, hi, true
}

// clampCell converts an estimated cell index to an int in [0, n]; NaN
// and anything below 0 map to 0.
func clampCell(f float64, n int) int {
	switch {
	case !(f > 0):
		return 0
	case f >= float64(n):
		return n
	}
	return int(f)
}

// fitGridToBounds sets Origin and CellSize such that the cubified bounds
// map exactly onto the r×r×r grid.
func fitGridToBounds(g *Grid, bounds geom.AABB, r int) {
	size := bounds.Size().MaxComponent()
	if size <= 0 {
		size = 1
	}
	g.CellSize = size / float64(r)
	half := geom.V(size/2, size/2, size/2)
	g.Origin = bounds.Center().Sub(half)
}

// VoxelizeMesh converts a watertight triangle mesh into an r×r×r voxel
// grid covering bounds, using scanline parity: for every (x, y) column of
// cell centers a ray along +z is intersected with all triangles, and cells
// whose center lies behind an odd number of crossings are inside.
//
// Meshes with geometry degenerate with respect to the ray lattice (faces
// exactly through cell-center rays) are handled by nudging the ray a tiny
// amount; remaining double-count artifacts are removed by deduplicating
// near-identical crossing depths.
func VoxelizeMesh(m mesh.Triangles, bounds geom.AABB, r int) *Grid {
	return VoxelizeMeshWorkers(m, bounds, r, 0)
}

// VoxelizeMeshWorkers is VoxelizeMesh on a bounded worker pool: the
// crossings of every column ray are collected in one pass over the
// triangles (columnCrossings), workers sweep disjoint y-ranges of columns
// with private word buffers, and buffers merge by OR. A column's
// crossings do not depend on scheduling, so the result is bit-identical
// at any worker count.
func VoxelizeMeshWorkers(m mesh.Triangles, bounds geom.AABB, r, workers int) *Grid {
	g := NewCube(r)
	fitGridToBounds(g, bounds, r)
	start, depths := columnCrossings(m, g)

	w := parallel.Workers(workers, 1)
	if w > r {
		w = r
	}
	if w <= 1 {
		fillColumns(g, start, depths, 0, r, g.words)
		return g
	}
	var mu sync.Mutex
	parallel.Run(w, func(worker int) {
		y0, y1 := parallel.Chunk(r, w, worker)
		if y0 >= y1 {
			return
		}
		buf := make([]uint64, len(g.words))
		fillColumns(g, start, depths, y0, y1, buf)
		mu.Lock()
		orWords(g.words, buf)
		mu.Unlock()
	})
	return g
}

// columnCrossings intersects the vertical ray of every (x, y) column with
// the triangles whose projected bounds reach it, and returns the crossing
// depths in one CSR index: column c = y·r+x owns depths[start[c]:start[c+1]],
// unordered. Rays are nudged off the cell centers so faces through the
// center lattice are not hit exactly. Triangles of zero projected area
// (walls parallel to the rays) cross no ray and are skipped; the rest have
// their ray-independent barycentric terms computed once, with the per-ray
// expressions' operands and order, so each depth is the same float64.
func columnCrossings(m mesh.Triangles, g *Grid) (start []int32, depths []float64) {
	const nudge = 1e-7
	r := g.Nx
	rays := make([]float64, 2*r) // rx per x, then ry per y
	for i := 0; i < r; i++ {
		c := g.CellCenter(i, i, 0)
		rays[i] = c.X + nudge*g.CellSize
		rays[r+i] = c.Y + nudge*2.3*g.CellSize
	}
	type crossing struct {
		col int32
		z   float64
	}
	hits := make([]crossing, 0, 4*r*r)
	start = make([]int32, r*r+1)
	mesh.ForEach(m, func(t *mesh.Triangle) {
		ax, ay, bx, by, cx, cy := t.A.X, t.A.Y, t.B.X, t.B.Y, t.C.X, t.C.Y
		d := (by-cy)*(ax-cx) + (cx-bx)*(ay-cy)
		if d == 0 {
			return
		}
		x0 := clampIdx(int(math.Floor((min(ax, bx, cx)-g.Origin.X)/g.CellSize-0.5)), 0, r-1)
		x1 := clampIdx(int(math.Ceil((max(ax, bx, cx)-g.Origin.X)/g.CellSize)), 0, r-1)
		y0 := clampIdx(int(math.Floor((min(ay, by, cy)-g.Origin.Y)/g.CellSize-0.5)), 0, r-1)
		y1 := clampIdx(int(math.Ceil((max(ay, by, cy)-g.Origin.Y)/g.CellSize)), 0, r-1)
		byCy, cxBx, cyAy, axCx := by-cy, cx-bx, cy-ay, ax-cx
		for y := y0; y <= y1; y++ {
			ryCy := rays[r+y] - cy
			for x := x0; x <= x1; x++ {
				rxCx := rays[x] - cx
				l1 := (byCy*rxCx + cxBx*ryCy) / d
				l2 := (cyAy*rxCx + axCx*ryCy) / d
				l3 := 1 - l1 - l2
				if l1 < 0 || l2 < 0 || l3 < 0 {
					continue
				}
				col := int32(y*r + x)
				hits = append(hits, crossing{col, l1*t.A.Z + l2*t.B.Z + l3*t.C.Z})
				start[col]++
			}
		}
	})
	// Counting sort by column: start[c] holds c's count, then (prefix sums)
	// the end of c's run, and after the fill counts it back down, its start.
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	depths = make([]float64, len(hits))
	for _, h := range hits {
		start[h.col]--
		depths[start[h.col]] = h.z
	}
	return start, depths
}

// fillColumns sets in dst (shaped like g.words) the inside cells of the
// columns with y ∈ [y0, y1): those with an odd number of their column's
// crossings below the center Origin.Z + (z+0.5)·CellSize. Each column's
// run of depths is sorted and pair-deduplicated in place.
func fillColumns(g *Grid, start []int32, depths []float64, y0, y1 int, dst []uint64) {
	r := g.Nx
	for c := y0 * r; c < y1*r; c++ {
		col := depths[start[c]:start[c+1]]
		if len(col) == 0 {
			continue
		}
		sort.Float64s(col)
		col = dedupClose(col, 1e-9*g.CellSize)
		ci := 0
		for z := 0; z < r; z++ {
			zc := g.Origin.Z + (float64(z)+0.5)*g.CellSize
			for ci < len(col) && col[ci] < zc {
				ci++
			}
			if ci%2 == 1 {
				i := c + r*r*z
				dst[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
}

func dedupClose(xs []float64, eps float64) []float64 {
	out := xs[:0]
	for i := 0; i < len(xs); i++ {
		if i+1 < len(xs) && xs[i+1]-xs[i] <= eps {
			// Coincident pair (shared edge crossed twice): drop both.
			i++
			continue
		}
		out = append(out, xs[i])
	}
	return out
}

func clampIdx(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
