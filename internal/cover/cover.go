// Package cover implements the cover sequence model of paper §3.3.3
// (after Jagadish & Bruckstein): a voxelized object O is approximated by a
// sequence S_k = (((C₀ σ₁ C₁) σ₂ C₂) … σ_k C_k) of axis-parallel
// rectangular covers C_i combined with set union (σ = +) or set
// difference (σ = −), chosen greedily to minimize the symmetric volume
// difference Err_i = |O XOR S_i| at every step.
//
// The greedy step — find the cover with the largest error reduction — is
// a maximum-sum sub-cuboid problem over a ±1 gain field and is solved
// exactly per step with a 3-D Kadane reduction in O(r⁵). Exact upper
// bounds (row bounds of z-slabs, positive mass of z-layers) skip the
// ranges that cannot beat the best sum found so far; since only a
// strictly greater sum replaces it, the chosen cuboid is the unpruned
// scan's, ties included.
//
// The package also converts cover sequences into the paper's two feature
// representations: the 6k-dimensional one-vector form (§3.3.3, with
// zero-filled dummy covers) and the vector set form (§4), using centered
// voxel coordinates so cube symmetries act exactly on features.
package cover

import (
	"fmt"

	"github.com/voxset/voxset/internal/voxel"
)

// Cover is one axis-parallel cuboid unit of a cover sequence, with
// inclusive voxel coordinate ranges and the set operation that applies it.
type Cover struct {
	X0, Y0, Z0 int // inclusive minimum voxel
	X1, Y1, Z1 int // inclusive maximum voxel
	Sign       int // +1 for set union, -1 for set difference
}

// Volume returns the number of voxels covered.
func (c Cover) Volume() int {
	return (c.X1 - c.X0 + 1) * (c.Y1 - c.Y0 + 1) * (c.Z1 - c.Z0 + 1)
}

// String implements fmt.Stringer.
func (c Cover) String() string {
	op := "+"
	if c.Sign < 0 {
		op = "-"
	}
	return fmt.Sprintf("%s[%d..%d]×[%d..%d]×[%d..%d]", op, c.X0, c.X1, c.Y0, c.Y1, c.Z0, c.Z1)
}

// Sequence is a greedy cover sequence approximation of a voxelized object.
type Sequence struct {
	R      int     // cubic grid resolution the covers refer to
	Covers []Cover // at most k covers; may be fewer if Err reached 0 or no cover helps
	Errs   []int   // Errs[i] = |O XOR S_{i+1}|, the error after each unit
}

// FinalErr returns the symmetric volume difference of the full sequence
// (the object's voxel count if the sequence is empty).
func (s Sequence) FinalErr(objectVoxels int) int {
	if len(s.Errs) == 0 {
		return objectVoxels
	}
	return s.Errs[len(s.Errs)-1]
}

// Greedy computes a cover sequence of at most k covers for the object
// grid, greedily minimizing the symmetric volume difference in each step
// (the polynomial algorithm of Jagadish & Bruckstein that the paper
// uses). The grid must be cubic. Extraction stops early when the error
// reaches zero or no cover strictly reduces it.
//
// Each step scans the two gain fields only inside the box where the full
// grid scan's winner can lie, and returns that winner (DESIGN.md §5):
//   - σ=+ is scanned in the object's occupied box B. S ⊆ B at every step,
//     so every cell outside B is −1; trimming an all-(−1) layer off a
//     cuboid strictly raises its sum, so every maximal cuboid lies in B,
//     and Kadane restarts at B's low x as the full scan does, the run
//     before it being negative.
//   - σ=− is scanned in the box of the + covers placed so far, which holds
//     S; outside it the field is 0, and reachDown maps the boxed winner to
//     the full scan's.
func Greedy(g *voxel.Grid, k int) Sequence {
	if g.Nx != g.Ny || g.Ny != g.Nz {
		panic("cover: Greedy requires a cubic grid")
	}
	if k < 0 {
		panic("cover: negative cover budget")
	}
	r := g.Nx
	seq := Sequence{R: r}

	// gainPlus[v] for σ=+ : +1 where O∧¬S (fixes error), -1 where ¬O∧¬S,
	// 0 inside S. gainMinus[v] for σ=− : +1 where ¬O∧S, -1 where O∧S, 0
	// outside S. S starts empty, and a placed cover rewrites only its own
	// cells, so the two fields also hold S and need no grid of their own.
	n := r * r * r
	fields := make([]int32, 2*n)
	gainPlus, gainMinus := fields[:n:n], fields[n:]
	for i := range gainPlus {
		gainPlus[i] = -1
	}
	object, placed := emptyBox(r), emptyBox(r) // B, and the box of the + covers
	g.ForEach(func(x, y, z int) {
		gainPlus[x+r*(y+r*z)] = 1
		object.include(Cover{X0: x, Y0: y, Z0: z, X1: x, Y1: y, Z1: z})
	})
	missing, spurious := g.Count(), 0 // |O\S| and |S\O|: positives of the two fields
	err := missing
	sc := newScanner(r)

	for step := 0; step < k && err > 0; step++ {
		// A field without positive cells has maximum sub-cuboid sum 0 (an
		// all-covered approximation still leaves zero cells somewhere while
		// the error is positive), and a zero gain never beats the other
		// sign or survives the gain > 0 check — skip the scan. A positive
		// cell of gainMinus is in S, so placed is not empty then.
		var gp, gm int32
		var cp, cm Cover
		if missing > 0 {
			gp, cp = sc.maxSubCuboid(gainPlus, object)
		}
		if spurious > 0 {
			gm, cm = sc.maxSubCuboid(gainMinus, placed)
			cm = placed.reachDown(cm)
		}

		var best Cover
		var gain int32
		if gp >= gm {
			best, gain = cp, gp
			best.Sign = 1
		} else {
			best, gain = cm, gm
			best.Sign = -1
		}
		if gain <= 0 {
			break // no cover strictly reduces the error
		}
		// Place the cover: a cell changing sides of S carries its gain,
		// negated, into the other field.
		for z := best.Z0; z <= best.Z1; z++ {
			for y := best.Y0; y <= best.Y1; y++ {
				row := r * (y + r*z)
				for i := row + best.X0; i <= row+best.X1; i++ {
					p, m := gainPlus[i], gainMinus[i]
					switch {
					case best.Sign > 0 && m == 0: // joins S
						gainPlus[i], gainMinus[i] = 0, -p
						if p > 0 {
							missing--
						} else {
							spurious++
						}
					case best.Sign < 0 && p == 0: // leaves S
						gainPlus[i], gainMinus[i] = -m, 0
						if m > 0 {
							spurious--
						} else {
							missing++
						}
					}
				}
			}
		}
		if best.Sign > 0 {
			placed.include(best)
		}
		err -= int(gain)
		seq.Covers = append(seq.Covers, best)
		seq.Errs = append(seq.Errs, err)
	}
	return seq
}

// Render reconstructs the approximation grid S_k described by the
// sequence.
func (s Sequence) Render() *voxel.Grid {
	g := voxel.NewCube(s.R)
	for _, c := range s.Covers {
		g.SetCuboid(c.X0, c.Y0, c.Z0, c.X1, c.Y1, c.Z1, c.Sign > 0)
	}
	return g
}

// box is an inclusive cell box of an r³ grid: lo[a] ≤ hi[a] on every axis
// a = x, y, z once a cell is included.
type box struct{ lo, hi [3]int }

// emptyBox is the box of no cell of an r³ grid.
func emptyBox(r int) box { return box{lo: [3]int{r, r, r}, hi: [3]int{-1, -1, -1}} }

// include grows b to hold the cuboid c.
func (b *box) include(c Cover) {
	b.lo = [3]int{min(b.lo[0], c.X0), min(b.lo[1], c.Y0), min(b.lo[2], c.Z0)}
	b.hi = [3]int{max(b.hi[0], c.X1), max(b.hi[1], c.Y1), max(b.hi[2], c.Z1)}
}

// reachDown maps the winner of a scan boxed to b, over a field that is 0
// everywhere outside b, to the full grid scan's winner. The full scan's
// passes for z0 from 0 up to b's low z see the same slab sums (the layers
// below are zero), so a winner starting at b's low z is first met at
// z0 = 0; likewise in y. Its low x stays: Kadane restarts through leading
// zeros (a run ≤ 0 restarts). Its upper ends stay: a zero never raises a
// run strictly, and the slabs and row ranges past b repeat the last ones.
func (b box) reachDown(c Cover) Cover {
	if c.Z0 == b.lo[2] {
		c.Z0 = 0
	}
	if c.Y0 == b.lo[1] {
		c.Y0 = 0
	}
	return c
}

// scanner holds maxSubCuboid's scratch, sized for an r³ grid once and
// reused by every scan of a Greedy call.
type scanner struct {
	r        int
	slab     []int32 // column sums over z ∈ [z0..z1], indexed y·nx + x
	colsum   []int32 // row sums over y ∈ [y0..y1], indexed x
	rowBound []int32 // Σ over slab rows ≥ y of max(0, best x-run)
	layerPos []int32 // positive mass of the layers ≥ z
}

func newScanner(r int) *scanner {
	buf := make([]int32, r*r+r+2*(r+1)) // one allocation for the four
	next := func(n int) []int32 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	return &scanner{r: r, slab: next(r * r), colsum: next(r), rowBound: next(r + 1), layerPos: next(r + 1)}
}

// maxSubCuboid finds the contiguous axis-parallel sub-cuboid of the
// field's cells inside b with maximal element sum, returning the sum and
// the cuboid in grid coordinates (Sign unset): the 3-D Kadane reduction,
// O(n⁵) for a box of side n, scanning z0, z1, y0, y1, x in that order.
// Exact upper bounds end a loop once nothing left in it can beat the
// incumbent: a z-slab's row bound (Σ over its rows ≥ y0 of max(0, the
// row's best x-run)) ends the y0 loop; the best x-run of rows y0..y1 plus
// the row bound past y1 ends the y1 loop; the slab's largest rectangle (or
// the bound that skipped part of it) plus the positive mass of the layers
// past z1 ends the z1 loop; the positive mass from z0 on ends the z0 loop.
// Kadane runs branch-free, tracking a row range's best run only; the
// branchy form is replayed when that run beats the incumbent, to take its
// updates in scan order. The incumbent is replaced only by a strictly
// greater sum and nothing skipped can exceed it, so the result —
// scan-order tie-breaking included — is maxSubCuboidRef's over the box's
// cells.
func (sc *scanner) maxSubCuboid(f []int32, b box) (int32, Cover) {
	r := sc.r
	bx, by, bz := b.lo[0], b.lo[1], b.lo[2]
	nx, ny, nz := b.hi[0]-bx+1, b.hi[1]-by+1, b.hi[2]-bz+1
	slab := sc.slab[:nx*ny]
	colsum := sc.colsum[:nx]
	rowBound := sc.rowBound[:ny+1]
	layerPos := sc.layerPos[:nz+1]
	rowBound[ny], layerPos[nz] = 0, 0
	// fieldRow is the box's part of the field row (y, z), box-relative.
	fieldRow := func(y, z int) []int32 {
		i := bx + r*(by+y+r*(bz+z))
		return f[i : i+nx : i+nx]
	}
	best := int32(-1 << 30)
	var bc Cover
	for z := nz - 1; z >= 0; z-- {
		var pos int32
		for y := 0; y < ny; y++ {
			for _, v := range fieldRow(y, z) {
				pos += max(v, 0)
			}
		}
		layerPos[z] = layerPos[z+1] + pos
	}
	for z0 := 0; z0 < nz && layerPos[z0] > best; z0++ {
		clear(slab)
		for z1 := z0; z1 < nz; z1++ {
			for y := 0; y < ny; y++ {
				frow := fieldRow(y, z1)
				row := slab[y*nx : (y+1)*nx]
				row = row[:len(frow)]
				var run, top int32
				for x, v := range frow {
					s := row[x] + v
					row[x] = s
					run = max(run, 0) + s
					top = max(top, run)
				}
				rowBound[y] = top
			}
			for y := ny - 1; y >= 0; y-- {
				rowBound[y] += rowBound[y+1]
			}
			slabTop := int32(-1 << 30) // bound on this slab's largest rectangle
			for y0 := 0; y0 < ny; y0++ {
				if rowBound[y0] <= best {
					slabTop = max(slabTop, rowBound[y0])
					break
				}
				clear(colsum)
				for y1 := y0; y1 < ny; y1++ {
					run, top := int32(0), int32(-1<<30)
					for x, v := range slab[y1*nx : (y1+1)*nx] {
						c := colsum[x] + v
						colsum[x] = c
						run = max(run, 0) + c
						top = max(top, run)
					}
					if top > best {
						best, bc = replayKadane(colsum, best, bc, Cover{Y0: y0, Y1: y1, Z0: z0, Z1: z1})
					}
					if reach := top + rowBound[y1+1]; reach <= best {
						slabTop = max(slabTop, reach)
						break
					}
					slabTop = max(slabTop, top)
				}
			}
			if slabTop+layerPos[z1+1] <= best {
				break
			}
		}
	}
	bc.X0, bc.X1 = bc.X0+bx, bc.X1+bx
	bc.Y0, bc.Y1 = bc.Y0+by, bc.Y1+by
	bc.Z0, bc.Z1 = bc.Z0+bz, bc.Z1+bz
	return best, bc
}

// replayKadane runs the reference's branchy 1-D Kadane over one row
// range's column sums, replacing the incumbent (best, bc) wherever the
// reference scan would; at carries the range's y and z bounds.
func replayKadane(colsum []int32, best int32, bc, at Cover) (int32, Cover) {
	var run int32
	runStart := 0
	for x, c := range colsum {
		if run <= 0 {
			run = c
			runStart = x
		} else {
			run += c
		}
		if run > best {
			best = run
			bc = at
			bc.X0, bc.X1 = runStart, x
		}
	}
	return best, bc
}
