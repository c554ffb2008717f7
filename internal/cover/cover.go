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
	gainPlus := make([]int32, r*r*r)
	gainMinus := make([]int32, r*r*r)
	for i := range gainPlus {
		gainPlus[i] = -1
	}
	g.ForEach(func(x, y, z int) { gainPlus[x+r*(y+r*z)] = 1 })
	missing, spurious := g.Count(), 0 // |O\S| and |S\O|: positives of the two fields
	err := missing

	for step := 0; step < k && err > 0; step++ {
		// A field without positive cells has maximum sub-cuboid sum 0 (an
		// all-covered approximation still leaves zero cells somewhere while
		// the error is positive), and a zero gain never beats the other
		// sign or survives the gain > 0 check — skip the scan.
		var gp, gm int32
		var cp, cm Cover
		if missing > 0 {
			gp, cp = maxSubCuboid(gainPlus, r)
		}
		if spurious > 0 {
			gm, cm = maxSubCuboid(gainMinus, r)
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

// maxSubCuboid finds the contiguous axis-parallel sub-cuboid of the r³
// field with maximal element sum, returning the sum and the cuboid
// (Sign unset): the 3-D Kadane reduction, O(r⁵), scanning z0, z1, y0, y1,
// x in that order. Exact upper bounds end a loop once nothing left in it
// can beat the incumbent: a z-slab's row bound (Σ over its rows ≥ y0 of
// max(0, the row's best x-run)) ends the y0 loop; the best x-run of rows
// y0..y1 plus the row bound past y1 ends the y1 loop; the slab's largest
// rectangle (or the bound that skipped part of it) plus the positive mass
// of the layers past z1 ends the z1 loop; the positive mass from z0 on
// ends the z0 loop. Kadane runs branch-free, tracking a row range's best
// run only; the branchy form is replayed when that run beats the
// incumbent, to take its updates in scan order. The incumbent is replaced
// only by a strictly greater sum and nothing skipped can exceed it, so
// the result — scan-order tie-breaking included — is maxSubCuboidRef's.
func maxSubCuboid(f []int32, r int) (int32, Cover) {
	best := int32(-1 << 30)
	var bc Cover
	slab := make([]int32, r*r)     // column sums over z ∈ [z0..z1], indexed y*r+x
	colsum := make([]int32, r)     // row sums over y ∈ [y0..y1], indexed x
	rowBound := make([]int32, r+1) // Σ over slab rows ≥ y of max(0, best x-run)
	layerPos := make([]int32, r+1) // positive mass of the layers ≥ z
	for z := r - 1; z >= 0; z-- {
		var pos int32
		for _, v := range f[z*r*r : (z+1)*r*r] {
			pos += max(v, 0)
		}
		layerPos[z] = layerPos[z+1] + pos
	}
	for z0 := 0; z0 < r && layerPos[z0] > best; z0++ {
		clear(slab)
		for z1 := z0; z1 < r; z1++ {
			layer := f[z1*r*r : (z1+1)*r*r]
			for y := 0; y < r; y++ {
				row := slab[y*r : (y+1)*r]
				var run, top int32
				for x, v := range layer[y*r : (y+1)*r] {
					s := row[x] + v
					row[x] = s
					run = max(run, 0) + s
					top = max(top, run)
				}
				rowBound[y] = top
			}
			for y := r - 1; y >= 0; y-- {
				rowBound[y] += rowBound[y+1]
			}
			slabTop := int32(-1 << 30) // bound on this slab's largest rectangle
			for y0 := 0; y0 < r; y0++ {
				if rowBound[y0] <= best {
					slabTop = max(slabTop, rowBound[y0])
					break
				}
				clear(colsum)
				for y1 := y0; y1 < r; y1++ {
					run, top := int32(0), int32(-1<<30)
					for x, v := range slab[y1*r : (y1+1)*r] {
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
