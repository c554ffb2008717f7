package voxel

import (
	"fmt"
	"sync"
)

// Word-parallel substrate. A Grid packs its cells into uint64 words in
// flat index order i = x + Nx·(y + Ny·z), so a face-neighbor lookup is a
// shift of the whole bitset: +x is a 1-bit shift, +y an Nx-bit shift, +z
// an Nx·Ny-bit shift. Two invariants make shifted-word algebra exact:
//
//   - boundary masks: a 1-bit x-shift moves the last voxel of one x-row
//     into the first cell of the next (and an Nx-bit y-shift wraps the
//     last y-row of a z-slab); the offending destination bits (x = 0,
//     x = Nx−1, y = 0, y = Ny−1 planes) are cleared after every shift, so
//     out-of-bounds neighbors read as empty — the same convention as
//     Grid.Get;
//   - tail bits: the bits of the last word beyond cell Nx·Ny·Nz−1 stay
//     zero at all times (the fast-path assumption of Grid.Equal and
//     Grid.Count). Every word-level kernel re-establishes the invariant,
//     and debugCheckTailBits guards it in the test suite.

// shiftMasks holds, per grid shape, the boundary-plane masks a shifted
// bitset must be ANDed against: mask bits are set on the destination
// cells a wrapped bit could land on.
type shiftMasks struct {
	x0, x1 []uint64 // cells with x == 0 / x == Nx-1
	y0, y1 []uint64 // cells with y == 0 / y == Ny-1
}

// maskCache shares the (immutable) masks between all grids of one shape;
// the handful of working resolutions makes hits near-universal.
var maskCache sync.Map // [3]int -> *shiftMasks

func gridMasks(nx, ny, nz int) *shiftMasks {
	key := [3]int{nx, ny, nz}
	if m, ok := maskCache.Load(key); ok {
		return m.(*shiftMasks)
	}
	words := (nx*ny*nz + 63) / 64
	m := &shiftMasks{
		x0: make([]uint64, words),
		x1: make([]uint64, words),
		y0: make([]uint64, words),
		y1: make([]uint64, words),
	}
	rows := ny * nz
	for row := 0; row < rows; row++ {
		setBit(m.x0, row*nx)
		setBit(m.x1, row*nx+nx-1)
	}
	for z := 0; z < nz; z++ {
		slab := nx * ny * z
		setBitRange(m.y0, slab, slab+nx)
		setBitRange(m.y1, slab+nx*(ny-1), slab+nx*ny)
	}
	actual, _ := maskCache.LoadOrStore(key, m)
	return actual.(*shiftMasks)
}

func setBit(w []uint64, i int) { w[i>>6] |= 1 << (uint(i) & 63) }

// setBitRange sets bits [lo, hi) of the flat bitset.
func setBitRange(w []uint64, lo, hi int) {
	for i := lo; i < hi; {
		wi := i >> 6
		if i&63 == 0 && hi-i >= 64 {
			w[wi] = ^uint64(0)
			i += 64
			continue
		}
		w[wi] |= 1 << (uint(i) & 63)
		i++
	}
}

// shiftUpInto writes dst = src << s (a flat bitset shift toward higher
// cell indices). dst and src must have equal length; in-place operation
// (dst == src) is allowed.
func shiftUpInto(dst, src []uint64, s int) {
	ws, bs := s>>6, uint(s&63)
	n := len(src)
	if ws >= n {
		clearWords(dst)
		return
	}
	if bs == 0 {
		for i := n - 1; i >= ws; i-- {
			dst[i] = src[i-ws]
		}
	} else {
		for i := n - 1; i > ws; i-- {
			dst[i] = src[i-ws]<<bs | src[i-ws-1]>>(64-bs)
		}
		dst[ws] = src[0] << bs
	}
	for i := 0; i < ws; i++ {
		dst[i] = 0
	}
}

// shiftDownInto writes dst = src >> s (a flat bitset shift toward lower
// cell indices). In-place operation is allowed.
func shiftDownInto(dst, src []uint64, s int) {
	ws, bs := s>>6, uint(s&63)
	n := len(src)
	if ws >= n {
		clearWords(dst)
		return
	}
	if bs == 0 {
		for i := 0; i < n-ws; i++ {
			dst[i] = src[i+ws]
		}
	} else {
		for i := 0; i < n-ws-1; i++ {
			dst[i] = src[i+ws]>>bs | src[i+ws+1]<<(64-bs)
		}
		dst[n-ws-1] = src[n-1] >> bs
	}
	for i := n - ws; i < n; i++ {
		dst[i] = 0
	}
}

func andWords(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

func andNotWords(dst, src []uint64) {
	for i := range dst {
		dst[i] &^= src[i]
	}
}

func orWords(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// clearTailBits zeroes the bits of the last word beyond cell n-1.
func clearTailBits(w []uint64, n int) {
	if rem := n & 63; rem != 0 && len(w) > 0 {
		w[len(w)-1] &= (1 << uint(rem)) - 1
	}
}

// shiftNeighbor writes into dst the occupancy of the face neighbor in
// direction (dir ∈ 0..5, the neighbors6 order: +x, −x, +y, −y, +z, −z):
// dst bit (x,y,z) = src bit of the neighbor, with out-of-bounds neighbors
// reading as empty. src must satisfy the tail-bit invariant; dst does on
// return.
func (g *Grid) shiftNeighbor(dst, src []uint64, dir int) {
	m := gridMasks(g.Nx, g.Ny, g.Nz)
	switch dir {
	case 0: // neighbor at +x: shift down so bit (x,y,z) reads src (x+1,y,z)
		shiftDownInto(dst, src, 1)
		andNotWords(dst, m.x1)
	case 1: // neighbor at −x
		shiftUpInto(dst, src, 1)
		andNotWords(dst, m.x0)
	case 2: // neighbor at +y
		shiftDownInto(dst, src, g.Nx)
		andNotWords(dst, m.y1)
	case 3: // neighbor at −y
		shiftUpInto(dst, src, g.Nx)
		andNotWords(dst, m.y0)
	case 4: // neighbor at +z
		shiftDownInto(dst, src, g.Nx*g.Ny)
	case 5: // neighbor at −z
		shiftUpInto(dst, src, g.Nx*g.Ny)
	default:
		panic(fmt.Sprintf("voxel: invalid shift direction %d", dir))
	}
	clearTailBits(dst, g.Len())
}

// interiorWords computes into dst the word image of the interior (= the
// 6-neighborhood erosion): cells occupied in src whose six face neighbors
// are all occupied. tmp is scratch of the same length.
func (g *Grid) interiorWords(dst, tmp, src []uint64) {
	copy(dst, src)
	for dir := 0; dir < 6; dir++ {
		g.shiftNeighbor(tmp, src, dir)
		andWords(dst, tmp)
	}
	clearTailBits(dst, g.Len())
}

// debugCheckTailBits panics if the grid violates the tail-bit invariant:
// bits beyond the last valid cell must stay zero so that the word-wise
// fast paths of Equal, Count and the shifted-word kernels remain exact.
func (g *Grid) debugCheckTailBits() {
	if rem := g.Len() & 63; rem != 0 && len(g.words) > 0 {
		if tail := g.words[len(g.words)-1] &^ ((1 << uint(rem)) - 1); tail != 0 {
			panic(fmt.Sprintf("voxel: tail-bit invariant violated (%d×%d×%d grid, tail word %#x)",
				g.Nx, g.Ny, g.Nz, tail))
		}
	}
}
