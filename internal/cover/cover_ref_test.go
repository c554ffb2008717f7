package cover

import "github.com/voxset/voxset/internal/voxel"

// maxSubCuboidRef is the unpruned 3-D Kadane reduction, kept verbatim as
// the ground truth for maxSubCuboid's upper-bound pruning: the parity
// tests assert identical (sum, cuboid) results — including scan-order
// tie-breaking — on randomized and tie-heavy fields.
func maxSubCuboidRef(f []int32, r int) (int32, Cover) {
	best := int32(-1 << 30)
	var bc Cover
	slab := make([]int32, r*r) // column sums over z ∈ [z0..z1], indexed y*r+x
	colsum := make([]int32, r) // row sums over y ∈ [y0..y1], indexed x
	for z0 := 0; z0 < r; z0++ {
		for i := range slab {
			slab[i] = 0
		}
		for z1 := z0; z1 < r; z1++ {
			base := z1 * r * r
			for i := 0; i < r*r; i++ {
				slab[i] += f[base+i]
			}
			for y0 := 0; y0 < r; y0++ {
				for i := range colsum {
					colsum[i] = 0
				}
				for y1 := y0; y1 < r; y1++ {
					row := y1 * r
					for x := 0; x < r; x++ {
						colsum[x] += slab[row+x]
					}
					// 1-D Kadane over x with index tracking.
					var run int32
					runStart := 0
					for x := 0; x < r; x++ {
						if run <= 0 {
							run = colsum[x]
							runStart = x
						} else {
							run += colsum[x]
						}
						if run > best {
							best = run
							bc = Cover{
								X0: runStart, X1: x,
								Y0: y0, Y1: y1,
								Z0: z0, Z1: z1,
							}
						}
					}
				}
			}
		}
	}
	return best, bc
}

// fullBox is the whole r³ grid, [0, r−1]³.
func fullBox(r int) box { return box{hi: [3]int{r - 1, r - 1, r - 1}} }

// maxSubCuboidFull is the scan over the whole grid, the box [0, r−1]³.
func maxSubCuboidFull(f []int32, r int) (int32, Cover) {
	return newScanner(r).maxSubCuboid(f, fullBox(r))
}

// gainFieldsRef builds Greedy's two gain fields for object o and
// approximation s from per-cell reads, and counts their positive cells.
func gainFieldsRef(o, s *voxel.Grid) (plus, minus []int32, missing, spurious int) {
	r := o.Nx
	plus, minus = make([]int32, r*r*r), make([]int32, r*r*r)
	idx := 0
	for z := 0; z < r; z++ {
		for y := 0; y < r; y++ {
			for x := 0; x < r; x++ {
				ov, sv := o.Get(x, y, z), s.Get(x, y, z)
				switch {
				case ov && !sv:
					plus[idx] = 1
					missing++
				case !ov && !sv:
					plus[idx] = -1
				case !ov && sv:
					minus[idx] = 1
					spurious++
				default:
					minus[idx] = -1
				}
				idx++
			}
		}
	}
	return plus, minus, missing, spurious
}

// greedyRef is Greedy as it was before the gain fields were updated in
// place: the approximation kept in a grid of its own, both fields rebuilt
// from the two grids every step, each scanned by maxSubCuboidRef.
func greedyRef(g *voxel.Grid, k int) Sequence {
	r := g.Nx
	seq := Sequence{R: r}
	s := voxel.NewCube(r)
	err := g.Count()
	for step := 0; step < k && err > 0; step++ {
		gainPlus, gainMinus, missing, spurious := gainFieldsRef(g, s)
		var gp, gm int32
		var cp, cm Cover
		if missing > 0 {
			gp, cp = maxSubCuboidRef(gainPlus, r)
		}
		if spurious > 0 {
			gm, cm = maxSubCuboidRef(gainMinus, r)
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
			break
		}
		s.SetCuboid(best.X0, best.Y0, best.Z0, best.X1, best.Y1, best.Z1, best.Sign > 0)
		err -= int(gain)
		seq.Covers = append(seq.Covers, best)
		seq.Errs = append(seq.Errs, err)
	}
	return seq
}
