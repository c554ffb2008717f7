package voxel

import (
	"testing"
	"testing/quick"

	"github.com/voxset/voxset/internal/geom"
)

func solidCube(r, lo, hi int) *Grid {
	g := NewCube(r)
	g.SetCuboid(lo, lo, lo, hi, hi, hi, true)
	return g
}

func TestSurfaceInteriorPartition(t *testing.T) {
	// V̄ ∪ V̇ = V and V̄ ∩ V̇ = ∅ must hold for any grid (paper §3.3).
	f := func(seed int64) bool {
		g := randomGrid(seed, 7)
		s, i := Surface(g), Interior(g)
		u := s.Clone()
		u.Union(i)
		if !u.Equal(g) {
			return false
		}
		x := s.Clone()
		x.IntersectWith(i)
		return x.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSurfaceOfSolidCube(t *testing.T) {
	g := solidCube(10, 2, 7) // 6×6×6 block
	s := Surface(g)
	i := Interior(g)
	if got, want := s.Count(), 6*6*6-4*4*4; got != want {
		t.Errorf("surface count = %d, want %d", got, want)
	}
	if got, want := i.Count(), 4*4*4; got != want {
		t.Errorf("interior count = %d, want %d", got, want)
	}
}

func TestSurfaceAtGridBorder(t *testing.T) {
	// Voxels touching the grid border are surface voxels.
	g := NewCube(3)
	g.SetCuboid(0, 0, 0, 2, 2, 2, true)
	if got := Surface(g).Count(); got != 26 {
		t.Errorf("surface of full 3³ = %d, want 26", got)
	}
	if got := Interior(g).Count(); got != 1 {
		t.Errorf("interior of full 3³ = %d, want 1", got)
	}
}

func TestApplySymPreservesCount(t *testing.T) {
	g := randomGrid(99, 8)
	for _, s := range geom.RotoReflections() {
		tg := ApplySym(g, s)
		if tg.Count() != g.Count() {
			t.Fatalf("symmetry %v changed count %d -> %d", s, g.Count(), tg.Count())
		}
	}
}

func TestApplySymIdentity(t *testing.T) {
	g := randomGrid(5, 6)
	id := geom.CubeSym{Perm: [3]int{0, 1, 2}, Sign: [3]int{1, 1, 1}}
	if !ApplySym(g, id).Equal(g) {
		t.Error("identity symmetry should not change the grid")
	}
}

func TestApplySymComposeConsistent(t *testing.T) {
	g := randomGrid(17, 5)
	syms := geom.Rotations90()
	for i := 0; i < len(syms); i += 5 {
		for j := 0; j < len(syms); j += 7 {
			a, b := syms[i], syms[j]
			viaCompose := ApplySym(g, a.Compose(b))
			viaSteps := ApplySym(ApplySym(g, b), a)
			if !viaCompose.Equal(viaSteps) {
				t.Fatalf("ApplySym does not respect composition for %v, %v", a, b)
			}
		}
	}
}

func TestApplySymInverseRoundTrip(t *testing.T) {
	g := randomGrid(123, 7)
	for _, s := range geom.RotoReflections() {
		back := ApplySym(ApplySym(g, s), s.Inverse())
		if !back.Equal(g) {
			t.Fatalf("inverse round trip failed for %v", s)
		}
	}
}

func TestApplySymRotatesAsymmetricShape(t *testing.T) {
	// An L-shape in the xy-plane must map as the matrix predicts.
	g := NewCube(5)
	g.Set(0, 0, 0, true)
	g.Set(1, 0, 0, true)
	g.Set(0, 1, 0, true)
	g.Set(0, 2, 0, true)
	// Rotation by 90° about z: (x,y,z) -> (-y,x,z) is the symmetry with
	// out.x = -in.y, out.y = in.x.
	s := geom.CubeSym{Perm: [3]int{1, 0, 2}, Sign: [3]int{-1, 1, 1}}
	tg := ApplySym(g, s)
	// Voxel (1,0,0) in centered coords (-2,-4,-4) maps to (4,-2,-4) which
	// is voxel (4,1,0).
	if !tg.Get(4, 1, 0) {
		t.Error("rotated voxel not where expected")
	}
	if tg.Count() != 4 {
		t.Errorf("count = %d", tg.Count())
	}
}

func TestApplySymNonCubicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ApplySym(NewGrid(3, 4, 3), geom.Rotations90()[0])
}

func TestComponents(t *testing.T) {
	g := NewCube(8)
	g.SetCuboid(0, 0, 0, 1, 1, 1, true) // component of 8
	g.SetCuboid(5, 5, 5, 7, 7, 7, true) // component of 27
	g.Set(3, 0, 7, true)                // singleton
	n, labels := Components(g)
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	// Labels follow the grid index order of each component's first voxel.
	for _, c := range []struct{ x, y, z, label int }{{0, 0, 0, 1}, {5, 5, 5, 2}, {3, 0, 7, 3}} {
		if got := labels[g.index(c.x, c.y, c.z)]; got != int32(c.label) {
			t.Errorf("label at (%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.label)
		}
	}
	counts := map[int32]int{}
	for _, l := range labels {
		if l != 0 {
			counts[l]++
		}
	}
	sizes := []int{}
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.Count() {
		t.Errorf("labelled %d voxels, grid has %d", total, g.Count())
	}
	lc := LargestComponent(g)
	if lc.Count() != 27 {
		t.Errorf("largest component = %d, want 27", lc.Count())
	}
}

func TestComponentsDiagonalNotConnected(t *testing.T) {
	g := NewCube(4)
	g.Set(0, 0, 0, true)
	g.Set(1, 1, 0, true) // edge-diagonal: not 6-connected
	if n, _ := Components(g); n != 2 {
		t.Errorf("components = %d, want 2 (6-connectivity)", n)
	}
}

func TestLargestComponentEmpty(t *testing.T) {
	if !LargestComponent(NewCube(4)).Empty() {
		t.Error("largest component of empty grid should be empty")
	}
}

func TestOccupiedCenters(t *testing.T) {
	g := NewCube(4)
	g.CellSize = 0.5
	g.Origin = geom.V(1, 1, 1)
	g.Set(0, 0, 0, true)
	g.Set(3, 3, 3, true)
	pts := OccupiedCenters(g)
	if len(pts) != 2 {
		t.Fatalf("got %d centers", len(pts))
	}
	if pts[0] != geom.V(1.25, 1.25, 1.25) {
		t.Errorf("first center = %v", pts[0])
	}
}
