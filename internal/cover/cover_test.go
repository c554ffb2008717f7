package cover

import (
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/voxel"
)

func TestGreedySingleBoxExact(t *testing.T) {
	g := voxel.NewCube(10)
	g.SetCuboid(2, 3, 4, 6, 7, 8, true)
	seq := Greedy(g, 5)
	if len(seq.Covers) != 1 {
		t.Fatalf("covers = %d, want 1 (a box is one cover)", len(seq.Covers))
	}
	c := seq.Covers[0]
	if c.X0 != 2 || c.X1 != 6 || c.Y0 != 3 || c.Y1 != 7 || c.Z0 != 4 || c.Z1 != 8 {
		t.Errorf("cover = %v", c)
	}
	if c.Sign != 1 {
		t.Errorf("sign = %d", c.Sign)
	}
	if seq.FinalErr(g.Count()) != 0 {
		t.Errorf("final err = %d", seq.FinalErr(g.Count()))
	}
	if !seq.Render().Equal(g) {
		t.Error("rendered sequence should equal the object")
	}
}

func TestGreedyUsesSubtractiveCover(t *testing.T) {
	// A box with a rectangular hole: optimal is big "+" cover then "-" for
	// the hole.
	g := voxel.NewCube(12)
	g.SetCuboid(1, 1, 1, 10, 10, 10, true)
	g.SetCuboid(4, 4, 0, 7, 7, 11, false) // square shaft all the way through
	seq := Greedy(g, 4)
	if len(seq.Covers) != 2 {
		t.Fatalf("covers = %d, want 2", len(seq.Covers))
	}
	if seq.Covers[0].Sign != 1 || seq.Covers[1].Sign != -1 {
		t.Errorf("signs = %d, %d; want +, -", seq.Covers[0].Sign, seq.Covers[1].Sign)
	}
	if seq.FinalErr(g.Count()) != 0 {
		t.Errorf("final err = %d", seq.FinalErr(g.Count()))
	}
	if !seq.Render().Equal(g) {
		t.Error("render mismatch")
	}
}

func TestGreedyErrorMonotone(t *testing.T) {
	// Errs must be strictly decreasing (each cover strictly reduces the
	// symmetric volume difference) and FinalErr equals |O XOR Render|.
	for seed := int64(0); seed < 8; seed++ {
		g := blobGrid(seed, 15)
		seq := Greedy(g, 7)
		prev := g.Count()
		for i, e := range seq.Errs {
			if e >= prev {
				t.Fatalf("seed %d: Errs[%d] = %d not < %d", seed, i, e, prev)
			}
			prev = e
		}
		if got := seq.Render().XORCount(g); got != seq.FinalErr(g.Count()) {
			t.Fatalf("seed %d: rendered err %d != tracked %d", seed, got, seq.FinalErr(g.Count()))
		}
	}
}

// blobGrid builds a connected random union of boxes — CAD-ish test data.
func blobGrid(seed int64, r int) *voxel.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := voxel.NewCube(r)
	for b := 0; b < 3+rng.Intn(3); b++ {
		x0, y0, z0 := rng.Intn(r-3), rng.Intn(r-3), rng.Intn(r-3)
		g.SetCuboid(x0, y0, z0, x0+1+rng.Intn(r-x0-1), y0+1+rng.Intn(r-y0-1), z0+1+rng.Intn(r-z0-1), true)
	}
	return g
}

func TestGreedyEmptyObject(t *testing.T) {
	seq := Greedy(voxel.NewCube(8), 5)
	if len(seq.Covers) != 0 {
		t.Errorf("covers for empty object = %d", len(seq.Covers))
	}
	if seq.FinalErr(0) != 0 {
		t.Errorf("final err = %d", seq.FinalErr(0))
	}
}

func TestGreedyZeroBudget(t *testing.T) {
	g := voxel.NewCube(8)
	g.SetCuboid(1, 1, 1, 3, 3, 3, true)
	seq := Greedy(g, 0)
	if len(seq.Covers) != 0 {
		t.Error("zero budget must yield no covers")
	}
	if seq.FinalErr(g.Count()) != g.Count() {
		t.Error("final err should be the object volume")
	}
}

func TestGreedyNonCubicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Greedy(voxel.NewGrid(4, 4, 5), 3)
}

func TestGreedyFirstCoverIsBestSingleBox(t *testing.T) {
	// For an L-shaped object the first greedy cover must be the bigger arm.
	g := voxel.NewCube(10)
	g.SetCuboid(0, 0, 0, 9, 2, 0, true) // arm A: 10×3×1 = 30
	g.SetCuboid(0, 0, 0, 2, 5, 0, true) // arm B: 3×6×1 = 18 (12 new)
	seq := Greedy(g, 1)
	if len(seq.Covers) != 1 {
		t.Fatal("want one cover")
	}
	c := seq.Covers[0]
	if c.Volume() != 30 {
		t.Errorf("first cover volume = %d, want 30 (the larger arm)", c.Volume())
	}
}

func TestMaxSubCuboidKnown(t *testing.T) {
	r := 4
	f := make([]int32, r*r*r)
	for i := range f {
		f[i] = -1
	}
	set := func(x, y, z int, v int32) { f[x+r*(y+r*z)] = v }
	set(1, 1, 1, 5)
	set(2, 1, 1, 4)
	set(3, 1, 1, -10)
	sum, c := maxSubCuboidFull(f, r)
	if sum != 9 {
		t.Errorf("sum = %d, want 9", sum)
	}
	if c.X0 != 1 || c.X1 != 2 || c.Y0 != 1 || c.Y1 != 1 || c.Z0 != 1 || c.Z1 != 1 {
		t.Errorf("cuboid = %v", c)
	}
}

func TestMaxSubCuboidAllNegativePicksLeastBad(t *testing.T) {
	r := 3
	f := make([]int32, r*r*r)
	for i := range f {
		f[i] = -5
	}
	f[13] = -1 // center
	sum, c := maxSubCuboidFull(f, r)
	if sum != -1 {
		t.Errorf("sum = %d, want -1", sum)
	}
	if c.Volume() != 1 {
		t.Errorf("cuboid volume = %d, want 1", c.Volume())
	}
}

func TestMaxSubCuboidMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	r := 5
	for trial := 0; trial < 30; trial++ {
		f := make([]int32, r*r*r)
		for i := range f {
			f[i] = int32(rng.Intn(7) - 3)
		}
		fast, _ := maxSubCuboidFull(f, r)
		slow := bruteMaxSubCuboid(f, r)
		if fast != slow {
			t.Fatalf("trial %d: kadane %d != brute %d", trial, fast, slow)
		}
	}
}

func bruteMaxSubCuboid(f []int32, r int) int32 {
	best := int32(-1 << 30)
	for x0 := 0; x0 < r; x0++ {
		for x1 := x0; x1 < r; x1++ {
			for y0 := 0; y0 < r; y0++ {
				for y1 := y0; y1 < r; y1++ {
					for z0 := 0; z0 < r; z0++ {
						for z1 := z0; z1 < r; z1++ {
							var s int32
							for x := x0; x <= x1; x++ {
								for y := y0; y <= y1; y++ {
									for z := z0; z <= z1; z++ {
										s += f[x+r*(y+r*z)]
									}
								}
							}
							if s > best {
								best = s
							}
						}
					}
				}
			}
		}
	}
	return best
}

func TestCoverVectorCenteredCoords(t *testing.T) {
	// A cover spanning the whole grid has position 0 and extent r.
	r := 10
	c := Cover{X0: 0, Y0: 0, Z0: 0, X1: r - 1, Y1: r - 1, Z1: r - 1, Sign: 1}
	v := c.Vector(r)
	want := []float64{0, 0, 0, 10, 10, 10}
	for i := range v {
		if v[i] != want[i] {
			t.Errorf("v[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	// A unit cover at the origin corner.
	c2 := Cover{X0: 0, Y0: 0, Z0: 0, X1: 0, Y1: 0, Z1: 0}
	v2 := c2.Vector(r)
	if v2[0] != -4.5 || v2[3] != 1 {
		t.Errorf("corner cover vector = %v", v2)
	}
}

func TestOneVectorPadding(t *testing.T) {
	g := voxel.NewCube(8)
	g.SetCuboid(1, 1, 1, 4, 4, 4, true)
	seq := Greedy(g, 3)
	f := seq.OneVector(5)
	if len(f) != 30 {
		t.Fatalf("len = %d", len(f))
	}
	// One real cover; slots 2..5 must be zero dummy covers.
	for i := 6; i < 30; i++ {
		if f[i] != 0 {
			t.Errorf("dummy slot f[%d] = %v", i, f[i])
		}
	}
}

func TestVectorSetNoPadding(t *testing.T) {
	g := voxel.NewCube(8)
	g.SetCuboid(1, 1, 1, 4, 4, 4, true)
	seq := Greedy(g, 7)
	vs := seq.VectorSet()
	if len(vs) != 1 {
		t.Fatalf("vector set cardinality = %d, want 1 (no dummies, paper §4.1)", len(vs))
	}
	if len(vs[0]) != 6 {
		t.Errorf("vector dim = %d", len(vs[0]))
	}
}

// TransformVector must agree exactly with transforming the cover
// geometrically (rendering it to a grid, applying the symmetry, and
// reading the cuboid back).
func TestTransformVectorMatchesGeometricTransform(t *testing.T) {
	r := 12
	covers := []Cover{
		{X0: 0, Y0: 0, Z0: 0, X1: 3, Y1: 1, Z1: 7},
		{X0: 5, Y0: 2, Z0: 9, X1: 8, Y1: 2, Z1: 11},
		{X0: 0, Y0: 0, Z0: 0, X1: 11, Y1: 11, Z1: 11},
	}
	for _, c := range covers {
		g := voxel.NewCube(r)
		g.SetCuboid(c.X0, c.Y0, c.Z0, c.X1, c.Y1, c.Z1, true)
		for _, s := range geom.RotoReflections() {
			tg := voxel.ApplySym(g, s)
			mn, mx, ok := tg.OccupiedBounds()
			if !ok {
				t.Fatal("transformed cover vanished")
			}
			tc := Cover{X0: mn[0], Y0: mn[1], Z0: mn[2], X1: mx[0], Y1: mx[1], Z1: mx[2]}
			want := tc.Vector(r)
			got := TransformVector(c.Vector(r), s)
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-12 {
					t.Fatalf("cover %v sym %v: component %d: got %v want %v",
						c, s, i, got[i], want[i])
				}
			}
		}
	}
}

// Greedy extraction is equivariant up to tie-breaking: the transformed
// object's sequence must have the same cardinality, the same per-step
// errors and a small matching distance to the transformed features.
func TestGreedyExtractionEquivariantUpToTies(t *testing.T) {
	g := blobGrid(7, 12)
	seq := Greedy(g, 5)
	base := seq.VectorSet()
	for _, s := range geom.RotoReflections() {
		tg := voxel.ApplySym(g, s)
		tseq := Greedy(tg, 5)
		if len(tseq.Covers) != len(seq.Covers) {
			t.Fatalf("cardinality %d vs %d under %v", len(tseq.Covers), len(seq.Covers), s)
		}
		for i := range seq.Errs {
			if seq.Errs[i] != tseq.Errs[i] {
				t.Fatalf("error profile differs under %v: %v vs %v", s, seq.Errs, tseq.Errs)
			}
		}
		got := TransformVectorSet(base, s)
		want := tseq.VectorSet()
		// Tie-breaking may pick geometrically different but equally good
		// covers; distances stay small relative to the grid size.
		if d := setDistance(want, got); d > float64(len(base))*6 {
			t.Fatalf("set distance %v under %v", d, s)
		}
	}
}

// setDistance: total Euclidean distance of the best greedy pairing —
// sufficient for equality checks in tests.
func setDistance(a, b [][]float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	used := make([]bool, len(b))
	total := 0.0
	for _, av := range a {
		best, bi := math.Inf(1), -1
		for j, bv := range b {
			if used[j] {
				continue
			}
			d := 0.0
			for i := range av {
				d += (av[i] - bv[i]) * (av[i] - bv[i])
			}
			if d < best {
				best, bi = d, j
			}
		}
		used[bi] = true
		total += math.Sqrt(best)
	}
	return total
}

func TestTransformVectorIdentity(t *testing.T) {
	id := geom.CubeSym{Perm: [3]int{0, 1, 2}, Sign: [3]int{1, 1, 1}}
	f := []float64{1, -2, 3, 4, 5, 6}
	got := TransformVector(f, id)
	for i := range f {
		if got[i] != f[i] {
			t.Errorf("identity transform changed component %d", i)
		}
	}
}

func TestTransformVectorExtentsStayPositive(t *testing.T) {
	f := []float64{1, -2, 3, 4, 5, 6}
	for _, s := range geom.RotoReflections() {
		g := TransformVector(f, s)
		for i := 3; i < 6; i++ {
			if g[i] <= 0 {
				t.Fatalf("extent component %d = %v under %v", i, g[i], s)
			}
		}
		// Extents are a permutation of the originals.
		sum := g[3] + g[4] + g[5]
		if math.Abs(sum-15) > 1e-12 {
			t.Fatalf("extent sum = %v under %v", sum, s)
		}
	}
}

func TestTransformOneVector(t *testing.T) {
	f := make([]float64, 12)
	copy(f[0:6], []float64{1, 0, 0, 2, 3, 4})
	copy(f[6:12], []float64{0, 1, 0, 1, 1, 1})
	// 90° about z: (x,y,z) -> (-y,x,z).
	s := geom.CubeSym{Perm: [3]int{1, 0, 2}, Sign: [3]int{-1, 1, 1}}
	g := TransformOneVector(f, s)
	if g[0] != 0 || g[1] != 1 { // (1,0,0) -> (0,1,0)
		t.Errorf("first cover position = %v", g[0:3])
	}
	if g[3] != 3 || g[4] != 2 { // extents swap x/y
		t.Errorf("first cover extents = %v", g[3:6])
	}
	if g[6] != -1 || g[7] != 0 { // (0,1,0) -> (-1,0,0)
		t.Errorf("second cover position = %v", g[6:9])
	}
}

func TestTransformVectorWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	TransformVector([]float64{1, 2, 3}, geom.Rotations90()[0])
}

func TestCoverStringAndVolume(t *testing.T) {
	c := Cover{X0: 1, X1: 2, Y0: 3, Y1: 5, Z0: 0, Z1: 0, Sign: -1}
	if c.Volume() != 2*3*1 {
		t.Errorf("volume = %d", c.Volume())
	}
	if c.String() != "-[1..2]×[3..5]×[0..0]" {
		t.Errorf("string = %q", c.String())
	}
}

var sinkSeq Sequence

// BenchmarkGreedyR15K7 extracts the served cover set (r = 15, k = 7) of
// 64 CAD parts voxelized as the corpus build does, one after another: a
// single repeated grid would let the branch predictor learn its scan.
func BenchmarkGreedyR15K7(b *testing.B) {
	var grids []*voxel.Grid
	for _, p := range cadgen.AircraftDataset(1, 64) {
		g, _ := normalize.VoxelizeNormalized(p.Solid, 15)
		grids = append(grids, g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSeq = Greedy(grids[i%len(grids)], 7)
	}
}
