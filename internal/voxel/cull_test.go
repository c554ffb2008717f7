package voxel

import (
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
)

// declared is a solid that declares the box b instead of its own bounds:
// a loose but valid Bounds (b contains the solid's).
type declared struct {
	csg.Solid
	b geom.AABB
}

func (d declared) Bounds() geom.AABB { return d.b }

// probe counts the membership tests it answers, and how many of them ask
// about a point outside its declared bounds widened by far less than a
// cell.
type probe struct {
	csg.Solid
	calls, outside int
}

func (p *probe) Contains(q geom.Vec3) bool {
	p.calls++
	if !p.Bounds().Expand(1e-6).Contains(q) {
		p.outside++
	}
	return p.Solid.Contains(q)
}

type cullCase struct {
	name    string
	s       csg.Solid
	partial geom.AABB // a placement that covers only part of s.Bounds()
}

// cullCases are the solids the culled voxelizers are checked on: off-center,
// hollow and anisotropic primitives, solids whose declared bounds are loose
// or elongated, a rotated elongated solid (whose transformed box is loose
// by construction), and one part of every car and aircraft family.
func cullCases() []cullCase {
	solids := []struct {
		name string
		s    csg.Solid
	}{
		{"sphere", csg.NewSphere(geom.V(0, 0, 0), 0.9)},
		{"small-sphere", csg.NewSphere(geom.V(0.4, -0.3, 0.2), 0.25)},
		{"hollow", csg.Difference(csg.NewSphere(geom.V(0, 0, 0), 0.95), csg.NewSphere(geom.V(0, 0, 0), 0.6))},
		{"cylinder", csg.NewCylinder(geom.V(0.1, 0.1, 0), 2, 0.3, 1.2)},
		{"far-sphere", csg.NewSphere(geom.V(10, 10, 10), 0.2)},
		{"loose", declared{csg.NewSphere(geom.V(0.2, 0, 0), 0.3), geom.Box(geom.V(-1.4, -0.9, -1), geom.V(1.3, 1.1, 0.9))}},
		{"elongated", csg.NewCylinder(geom.V(0.3, -0.2, 0.1), 0, 0.15, 2.6)},
		{"rotated-elongated", csg.Transform(csg.NewCylinder(geom.V(0, 0, 0), 0, 0.1, 3), geom.Rotate(geom.RotationZ(0.5)))},
	}
	for _, p := range cadgen.CarDataset(3) {
		if p.Name == p.Class+"-0" {
			solids = append(solids, struct {
				name string
				s    csg.Solid
			}{p.Name, p.Solid})
		}
	}
	for _, p := range cadgen.AircraftDataset(11, 100) {
		if p.Name == p.Class+"-0" {
			solids = append(solids, struct {
				name string
				s    csg.Solid
			}{"aircraft-" + p.Name, p.Solid})
		}
	}
	out := make([]cullCase, len(solids))
	for i, c := range solids {
		b := c.s.Bounds()
		half := b.Size().Scale(0.5)
		out[i] = cullCase{c.name, c.s, geom.AABB{Min: b.Min.Add(half), Max: b.Max.Add(half)}}
	}
	return out
}

// scanSolid is the unculled reference voxelization: every cell center of
// g's placement is tested.
func scanSolid(s csg.Solid, g *Grid) *Grid {
	out := NewGrid(g.Nx, g.Ny, g.Nz)
	out.Origin, out.CellSize = g.Origin, g.CellSize
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				if s.Contains(g.CellCenter(x, y, z)) {
					out.Set(x, y, z, true)
				}
			}
		}
	}
	return out
}

// TestVoxelizeSolidMatchesFullScan pins the culled voxelizer, serial and
// z-slab parallel, to the full scan bit for bit, on placements over the
// solid's declared box, over a loose cube around it and over a box that
// only partly overlaps it; and checks that the serial path never asks
// about a point outside the declared box while it skips most of the cube
// around an elongated one.
func TestVoxelizeSolidMatchesFullScan(t *testing.T) {
	for _, c := range cullCases() {
		b := c.s.Bounds()
		for _, gb := range []geom.AABB{b, b.Expand(b.Size().MaxComponent() / 3), c.partial} {
			for _, r := range []int{7, 15, 30} {
				want := scanSolid(c.s, FitCube(gb, r))
				for _, w := range []int{1, 2, 3, r + 1} {
					if got := VoxelizeSolidWorkers(c.s, gb, r, w); !got.Equal(want) {
						t.Fatalf("%s grid %v r=%d workers=%d: culled voxelization differs from the full scan", c.name, gb, r, w)
					}
				}
				p := &probe{Solid: c.s}
				VoxelizeSolidWorkers(p, gb, r, 1)
				if p.outside > 0 {
					t.Fatalf("%s grid %v r=%d: %d of %d membership tests outside the declared bounds", c.name, gb, r, p.outside, p.calls)
				}
			}
		}
	}
	for _, name := range []string{"elongated", "rotated-elongated"} {
		for _, c := range cullCases() {
			if c.name != name {
				continue
			}
			p := &probe{Solid: c.s}
			VoxelizeSolid(p, c.s.Bounds(), 15)
			if p.calls*2 > 15*15*15 {
				t.Errorf("%s: %d membership tests at r=15, want under half of the %d cells", name, p.calls, 15*15*15)
			}
		}
	}
}

// TestCellRangeConservative checks the index range against its definition
// on random boxes and placements: every cell whose center lies in the box
// (faces included) is kept, and every kept cell's center lies in the box
// widened by the slack.
func TestCellRangeConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coord := func(scale float64) float64 { return (2*rng.Float64() - 1) * scale }
	for trial := 0; trial < 2000; trial++ {
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		r := 1 + rng.Intn(40)
		g := FitCube(geom.Box(geom.V(coord(scale), coord(scale), coord(scale)), geom.V(coord(scale), coord(scale), coord(scale))), r)
		b := geom.Box(geom.V(coord(scale), coord(scale), coord(scale)), geom.V(coord(scale), coord(scale), coord(scale)))
		if trial%4 == 0 { // put a face exactly on a cell center
			b.Min.X = g.CellCenter(rng.Intn(r), 0, 0).X
			b.Max.Y = g.CellCenter(0, rng.Intn(r), 0).Y
		}
		lo, hi, ok := g.cellRange(b)
		kept := func(x, y, z int) bool {
			return ok && lo[0] <= x && x <= hi[0] && lo[1] <= y && y <= hi[1] && lo[2] <= z && z <= hi[2]
		}
		slack := 1e-8 * (scale + g.CellSize*float64(r))
		for z := 0; z < r; z++ {
			for y := 0; y < r; y++ {
				for x := 0; x < r; x++ {
					c := g.CellCenter(x, y, z)
					if b.Contains(c) && !kept(x, y, z) {
						t.Fatalf("trial %d: cell (%d,%d,%d) center %v inside %v dropped (range %v..%v ok=%v)", trial, x, y, z, c, b, lo, hi, ok)
					}
					if kept(x, y, z) && !b.Expand(slack).Contains(c) {
						t.Fatalf("trial %d: cell (%d,%d,%d) center %v kept, far outside %v", trial, x, y, z, c, b)
					}
				}
			}
		}
	}
}

// TestCellRangeEdges covers the boxes the voxelizers must not cull by: a
// box whose faces are exactly on cell centers keeps those cells (Contains
// is closed) and voxelizes them; NaN or infinite sides (a halfspace, or its
// transformed box) do not restrict; an empty box, or one beside the grid,
// keeps nothing.
func TestCellRangeEdges(t *testing.T) {
	g := FitCube(geom.Box(geom.V(-1, -1, -1), geom.V(1, 1, 1)), 8)
	faces := geom.Box(g.CellCenter(2, 3, 1), g.CellCenter(5, 3, 6))
	lo, hi, ok := g.cellRange(faces)
	if !ok || lo != [3]int{2, 3, 1} || hi != [3]int{5, 3, 6} {
		t.Fatalf("faces on centers: range %v..%v ok=%v, want [2 3 1]..[5 3 6]", lo, hi, ok)
	}
	box := csg.NewBox(faces.Min, faces.Max)
	if got, want := VoxelizeSolid(box, geom.Box(geom.V(-1, -1, -1), geom.V(1, 1, 1)), 8).Count(), 4*1*6; got != want {
		t.Fatalf("box with faces on centers voxelizes to %d cells, want %d", got, want)
	}
	inf, nan := math.Inf(1), math.NaN()
	full := [3]int{7, 7, 7}
	for _, b := range []geom.AABB{
		csg.NewHalfspace(geom.V(1, 0, 0), 0).Bounds(),
		{Min: geom.V(nan, -inf, nan), Max: geom.V(inf, nan, nan)},
	} {
		if lo, hi, ok := g.cellRange(b); !ok || lo != [3]int{} || hi != full {
			t.Fatalf("unbounded %v: range %v..%v ok=%v, want the whole grid", b, lo, hi, ok)
		}
	}
	for _, b := range []geom.AABB{
		geom.EmptyAABB(),
		geom.Box(geom.V(1.2, -1, -1), geom.V(3, 1, 1)),
		geom.Box(geom.V(-0.5, -0.5, -0.5), geom.V(-0.45, 0.5, 0.5)), // between two center planes
	} {
		if _, _, ok := g.cellRange(b); ok {
			t.Fatalf("%v: cells kept, want none", b)
		}
	}
}

// TestCullKeepsRoundingOutliers: a placed solid can contain points an ulp
// or so outside its declared bounds, because Bounds maps the child's box
// forward while Contains maps the point back, each rounding on its own. The
// slack must keep such a point's cell. The test finds placed boxes with
// such a point, puts a cell center exactly on it, and checks the sweep
// still agrees with the full scan.
func TestCullKeepsRoundingOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := geom.Rotations90()
	found := 0
	for trial := 0; trial < 1000 && found < 4; trial++ {
		lo := geom.V(rng.Float64(), rng.Float64(), rng.Float64())
		hi := lo.Add(geom.V(rng.Float64()+0.1, rng.Float64()+0.1, rng.Float64()+0.1))
		stretch := geom.V(0.5+2*rng.Float64(), 0.5+2*rng.Float64(), 0.5+2*rng.Float64())
		tr := geom.V(rng.Float64()*200-100, rng.Float64()*200-100, rng.Float64()*200-100)
		a := geom.Translate(tr).Compose(geom.Rotate(syms[rng.Intn(len(syms))].Matrix())).Compose(geom.ScaleAffine(stretch))
		s := csg.Transform(csg.NewBox(lo, hi), a)
		b := s.Bounds()
	axes:
		for ax := 0; ax < 3; ax++ {
			// One ulp below the box's low face on axis ax, mid-box on the others.
			p := b.Center().SetComponent(ax, math.Nextafter(b.Min.Component(ax), math.Inf(-1)))
			if !s.Contains(p) {
				continue
			}
			// A 16³ grid whose cell (0, 8, 8) — permuted onto ax — is centered
			// exactly on p.
			g := NewCube(16)
			g.CellSize = b.Size().MaxComponent() / 12
			for k := 0; k < 3; k++ {
				idx := 8.0
				if k == ax {
					idx = 0
				}
				o := p.Component(k) - (idx+0.5)*g.CellSize
				for step := 0; o+(idx+0.5)*g.CellSize != p.Component(k); step++ {
					if step == 64 { // no origin puts a cell center exactly on p
						continue axes
					}
					if o+(idx+0.5)*g.CellSize < p.Component(k) {
						o = math.Nextafter(o, math.Inf(1))
					} else {
						o = math.Nextafter(o, math.Inf(-1))
					}
				}
				g.Origin = g.Origin.SetComponent(k, o)
			}
			found++
			wantMn, wantMx, wantOK := scanSolid(s, g).OccupiedBounds()
			if !wantOK || wantMn[ax] != 0 {
				t.Fatalf("trial %d axis %d: the outlier's cell is not occupied in the full scan (%v..%v)", trial, ax, wantMn, wantMx)
			}
			if mn, mx, ok := g.SampleOccupiedBounds(s); !ok || mn != wantMn || mx != wantMx {
				t.Fatalf("trial %d axis %d: sweep bounds %v..%v ok=%v, full scan %v..%v: the cell an ulp outside the declared bounds was culled",
					trial, ax, mn, mx, ok, wantMn, wantMx)
			}
		}
	}
	if found == 0 {
		t.Fatal("no placed box with a point outside its bounds under a cell center; the test exercises nothing")
	}
}
