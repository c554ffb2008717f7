package cover

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/degrade"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/voxel"
)

// TestMaxSubCuboidParity pins the pruned scan to the unpruned reference —
// including the cuboid coordinates, which encode scan-order tie-breaking —
// at every r from 1 to 20, on randomized ±1/0 fields of the shape Greedy
// produces and on tie-heavy ones: mirror-symmetric objects, fields with
// all-zero layers and rows, two disjoint boxes of equal sum, and the
// fields Greedy scans after 1–6 covers.
func TestMaxSubCuboidParity(t *testing.T) {
	for r := 1; r <= 20; r++ {
		for name, f := range parityFields(r) {
			wantSum, wantCover := maxSubCuboidRef(f, r)
			gotSum, gotCover := maxSubCuboidFull(f, r)
			if wantSum != gotSum || wantCover != gotCover {
				t.Fatalf("r=%d %s: pruned scan returned (%d, %+v), reference (%d, %+v)",
					r, name, gotSum, gotCover, wantSum, wantCover)
			}
		}
	}
}

// parityFields returns the named r³ test fields for TestMaxSubCuboidParity.
func parityFields(r int) map[string][]int32 {
	fields := map[string][]int32{}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
		// Sparse-positive, dense, all-negative and all-zero-or-negative.
		density := []float64{0.02, 0.3, 0.7, 0}[seed%4]
		f := make([]int32, r*r*r)
		for i := range f {
			switch {
			case rng.Float64() < density:
				f[i] = 1
			case rng.Float64() < 0.5:
				f[i] = -1
			}
		}
		fields[fmt.Sprintf("random-%d", seed)] = f

		zeroed := append([]int32(nil), f...)
		for i := range zeroed {
			x, y, z := i%r, i/r%r, i/(r*r)
			if z%3 == 1 || y%4 == 2 || (seed%2 == 1 && x == r/2) {
				zeroed[i] = 0
			}
		}
		fields[fmt.Sprintf("zero-slabs-%d", seed)] = zeroed

		o := mirroredBlob(rng, r)
		fields[fmt.Sprintf("mirrored-%d", seed)] = objectField(o)

		if r >= 2 {
			fields[fmt.Sprintf("twin-boxes-%d", seed)] = twinBoxes(rng, r)
		}

		// The fields Greedy scans after each of its first six covers.
		seq := greedyRef(o, 6)
		s := voxel.NewCube(r)
		for i, c := range seq.Covers {
			s.SetCuboid(c.X0, c.Y0, c.Z0, c.X1, c.Y1, c.Z1, c.Sign > 0)
			plus, minus, _, _ := gainFieldsRef(o, s)
			fields[fmt.Sprintf("greedy-%d-step%d-plus", seed, i+1)] = plus
			fields[fmt.Sprintf("greedy-%d-step%d-minus", seed, i+1)] = minus
		}
	}
	return fields
}

// mirroredBlob is a union of random boxes made symmetric under x ↦ r−1−x
// (and, for odd draws, y ↦ r−1−y), so a best cuboid and its mirror image
// have the same sum.
func mirroredBlob(rng *rand.Rand, r int) *voxel.Grid {
	g := voxel.NewCube(r)
	flipY := rng.Intn(2) == 1
	for b := 0; b < 2+rng.Intn(3); b++ {
		x0, y0, z0 := rng.Intn(r), rng.Intn(r), rng.Intn(r)
		x1, y1, z1 := x0+rng.Intn(r-x0), y0+rng.Intn(r-y0), z0+rng.Intn(r-z0)
		g.SetCuboid(x0, y0, z0, x1, y1, z1, true)
		g.SetCuboid(r-1-x1, y0, z0, r-1-x0, y1, z1, true)
		if flipY {
			g.SetCuboid(x0, r-1-y1, z0, x1, r-1-y0, z1, true)
			g.SetCuboid(r-1-x1, r-1-y1, z0, r-1-x0, r-1-y0, z1, true)
		}
	}
	return g
}

// objectField is Greedy's first σ=+ field: +1 on the object, −1 elsewhere.
func objectField(o *voxel.Grid) []int32 {
	plus, _, _, _ := gainFieldsRef(o, voxel.NewCube(o.Nx))
	return plus
}

// twinBoxes is a −1 field with two disjoint +1 boxes of equal shape, one
// in each half along a random axis: two cuboids tie for the maximum.
func twinBoxes(rng *rand.Rand, r int) []int32 {
	f := make([]int32, r*r*r)
	for i := range f {
		f[i] = -1
	}
	axis := rng.Intn(3)
	var size [3]int
	for a := range size {
		lim := r
		if a == axis {
			lim = r / 2
		}
		size[a] = 1 + rng.Intn(lim)
	}
	var at [3]int
	for a := range at {
		at[a] = rng.Intn(r - size[a] + 1)
	}
	at[axis] = rng.Intn(r/2 - size[axis] + 1)
	for copyIdx := 0; copyIdx < 2; copyIdx++ {
		for z := at[2]; z < at[2]+size[2]; z++ {
			for y := at[1]; y < at[1]+size[1]; y++ {
				for x := at[0]; x < at[0]+size[0]; x++ {
					f[x+r*(y+r*z)] = 1
				}
			}
		}
		at[axis] += r / 2
	}
	return f
}

// TestGreedyMatchesRef pins Greedy — in-place gain-field updates over the
// pruned scan — to the reference greedy that rebuilds both fields from
// the grids every step and scans them unpruned: identical covers and
// errors on CAD parts voxelized as the corpus build does (r = 15, k = 7)
// and on every scan-to-CAD damage of them.
func TestGreedyMatchesRef(t *testing.T) {
	for _, p := range cadgen.AircraftDataset(3, 12) {
		g, _ := normalize.VoxelizeNormalized(p.Solid, 15)
		grids := map[string]*voxel.Grid{"clean": g}
		for i, kind := range degrade.Kinds {
			for _, sev := range []float64{0.1, 0.5} {
				dp := degrade.Params{Kind: kind, Severity: sev, Seed: int64(i)}
				grids[fmt.Sprintf("%s-%.2f", kind, sev)] = degrade.Grid(g, dp)
			}
		}
		for name, dg := range grids {
			want, got := greedyRef(dg, 7), Greedy(dg, 7)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s %s: Greedy\n%v %v\nreference\n%v %v",
					p.Name, name, got.Covers, got.Errs, want.Covers, want.Errs)
			}
		}
	}
}

// TestGreedyBoxedMatchesRef pins Greedy's boxed scans to the reference
// greedy, which scans both fields over the whole grid, on objects that
// leave most of the grid outside their box — sparse blobs, thin slabs and
// rods — at every r from 1 to 20 with budgets up to 12, so the − field is
// scanned after several + covers of differing boxes.
func TestGreedyBoxedMatchesRef(t *testing.T) {
	for r := 1; r <= 20; r++ {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(r)))
			for _, shape := range []string{"blobs", "slab", "rod"} {
				g := sparseObject(rng, r, shape)
				k := 1 + rng.Intn(12)
				want, got := greedyRef(g, k), Greedy(g, k)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("r=%d seed %d %s k=%d: Greedy\n%v %v\nreference\n%v %v",
						r, seed, shape, k, got.Covers, got.Errs, want.Covers, want.Errs)
				}
			}
		}
	}
}

// sparseObject draws an object filling little of its r³ grid: a few
// small boxes (blobs), boxes one or two cells thin along one axis
// (slab), or long along one axis and thin along the others (rod). Small
// cuboids are then cut out inside the object's box, so that − covers pay
// off and are scanned in boxes away from the grid's low corner.
func sparseObject(rng *rand.Rand, r int, shape string) *voxel.Grid {
	g := voxel.NewCube(r)
	thin, long := rng.Intn(3), rng.Intn(3)
	for b := 0; b < 2+rng.Intn(3); b++ {
		var lo, hi [3]int
		for a := range lo {
			n := 1 + rng.Intn(max(1, r/3))
			switch {
			case shape == "slab" && a == thin, shape == "rod" && a != long:
				n = 1 + rng.Intn(2)
			case shape != "blobs":
				n = 1 + rng.Intn(r)
			}
			n = min(n, r)
			lo[a] = rng.Intn(r - n + 1)
			hi[a] = lo[a] + n - 1
		}
		g.SetCuboid(lo[0], lo[1], lo[2], hi[0], hi[1], hi[2], true)
	}
	mn, mx, _ := g.OccupiedBounds()
	for c := 0; c < 1+rng.Intn(4); c++ {
		var lo, hi [3]int
		for a := range lo {
			lo[a] = mn[a] + rng.Intn(mx[a]-mn[a]+1)
			hi[a] = min(mx[a], lo[a]+rng.Intn(3))
		}
		g.SetCuboid(lo[0], lo[1], lo[2], hi[0], hi[1], hi[2], false)
	}
	return g
}

// TestGreedyMinusReachesDown: an 8³ block at [2..9]³ with a 4³ notch in
// its low-y, low-z corner. The first cover is the block (+); the second
// removes the notch (−), and since gainMinus is 0 below the block, the
// full scan first meets the notch's cuboid with z0 = 0 and y0 = 0. Greedy
// scans the − field only inside the block and must map its winner there.
func TestGreedyMinusReachesDown(t *testing.T) {
	g := voxel.NewCube(12)
	g.SetCuboid(2, 2, 2, 9, 9, 9, true)
	g.SetCuboid(4, 2, 2, 7, 5, 5, false)
	want, got := greedyRef(g, 3), Greedy(g, 3)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Greedy\n%v %v\nreference\n%v %v", got.Covers, got.Errs, want.Covers, want.Errs)
	}
	minus := Cover{X0: 4, X1: 7, Y0: 0, Y1: 5, Z0: 0, Z1: 5, Sign: -1}
	if len(got.Covers) != 2 || got.Covers[1] != minus {
		t.Fatalf("covers %v, want the block then %v", got.Covers, minus)
	}
}

// FuzzMaxSubCuboid: for any field — r from the first byte (1..20), cell
// values in −2..2 from the rest, cycled, small so sums tie often — the
// pruned scan over the whole grid returns the reference's sum and cuboid.
// The same field is then scanned in a box drawn from the six corner
// arguments (taken mod r and ordered): outside it every cell is set to
// −1 (Greedy's σ=+ field outside the object's box) or to 0 (its σ=−
// field outside the placed covers' box), one inside cell is raised to 1
// unless one is positive already (Greedy scans a field only then), and
// the boxed scan — followed by reachDown for the 0 case — must return the
// reference's winner over the whole grid.
func FuzzMaxSubCuboid(f *testing.F) {
	f.Add([]byte{15, 0x01, 0xff, 0x00}, uint8(2), uint8(3), uint8(4), uint8(9), uint8(8), uint8(12), false)
	f.Add([]byte{4, 0x01, 0x01, 0xff, 0xff, 0x00, 0x01}, uint8(1), uint8(1), uint8(1), uint8(2), uint8(3), uint8(3), true)
	f.Add([]byte{20}, uint8(0), uint8(5), uint8(5), uint8(19), uint8(6), uint8(7), true)
	f.Add([]byte{12, 0x03, 0x03, 0x00, 0x01}, uint8(2), uint8(2), uint8(2), uint8(9), uint8(9), uint8(9), true)
	f.Fuzz(func(t *testing.T, data []byte, x0, y0, z0, x1, y1, z1 uint8, zeroOutside bool) {
		if len(data) == 0 {
			return
		}
		r := 1 + int(data[0])%20
		vals := data[1:]
		field := make([]int32, r*r*r)
		for i := range field {
			if len(vals) > 0 {
				field[i] = int32(vals[i%len(vals)]%5) - 2
			}
		}
		wantSum, wantCover := maxSubCuboidRef(field, r)
		gotSum, gotCover := maxSubCuboidFull(field, r)
		if wantSum != gotSum || wantCover != gotCover {
			t.Fatalf("r=%d: pruned scan returned (%d, %+v), reference (%d, %+v)",
				r, gotSum, gotCover, wantSum, wantCover)
		}

		var b box
		for a, c := range [3][2]uint8{{x0, x1}, {y0, y1}, {z0, z1}} {
			lo, hi := int(c[0])%r, int(c[1])%r
			b.lo[a], b.hi[a] = min(lo, hi), max(lo, hi)
		}
		outside := int32(-1)
		if zeroOutside {
			outside = 0
		}
		positive := false
		for i := range field {
			x, y, z := i%r, i/r%r, i/(r*r)
			if x < b.lo[0] || x > b.hi[0] || y < b.lo[1] || y > b.hi[1] || z < b.lo[2] || z > b.hi[2] {
				field[i] = outside
			} else if field[i] > 0 {
				positive = true
			}
		}
		if !positive {
			field[b.lo[0]+r*(b.lo[1]+r*b.lo[2])] = 1
		}
		wantSum, wantCover = maxSubCuboidRef(field, r)
		gotSum, gotCover = newScanner(r).maxSubCuboid(field, b)
		if zeroOutside {
			gotCover = b.reachDown(gotCover)
		}
		if wantSum != gotSum || wantCover != gotCover {
			t.Fatalf("r=%d box %v outside %d: boxed scan returned (%d, %+v), reference (%d, %+v)",
				r, b, outside, gotSum, gotCover, wantSum, wantCover)
		}
	})
}
