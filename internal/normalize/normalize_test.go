package normalize

import (
	"math"
	"testing"

	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/voxel"
)

func TestVoxelizeNormalizedCentersObject(t *testing.T) {
	// The same sphere at two different world positions and scales must
	// voxelize to the same normalized grid.
	a := csg.NewSphere(geom.V(0, 0, 0), 1)
	b := csg.NewSphere(geom.V(100, -50, 3), 7)
	ga, ia := VoxelizeNormalized(a, 16)
	gb, ib := VoxelizeNormalized(b, 16)
	if !ga.Equal(gb) {
		t.Error("normalized voxelizations of translated+scaled copies differ")
	}
	// Centers and extents are recovered up to the coarse-sampling padding
	// of the bounds-tightening pass (≲ 5%).
	if ia.Center.Dist(geom.V(0, 0, 0)) > 0.1 || ib.Center.Dist(geom.V(100, -50, 3)) > 0.7 {
		t.Errorf("centers = %v, %v", ia.Center, ib.Center)
	}
	if math.Abs(ia.Extent.X-2) > 0.1 || math.Abs(ib.Extent.X-14) > 0.7 {
		t.Errorf("extents = %v, %v", ia.Extent, ib.Extent)
	}
}

func TestVoxelizeNormalizedAnisotropicExtents(t *testing.T) {
	s := csg.NewBox(geom.V(0, 0, 0), geom.V(4, 2, 1))
	_, info := VoxelizeNormalized(s, 8)
	if !info.Extent.ApproxEqual(geom.V(4, 2, 1), 0.2) {
		t.Errorf("extent = %v", info.Extent)
	}
}

func TestPrincipalAxesAlignsElongation(t *testing.T) {
	// A rod along the y axis: PCA must map its long axis to x (row 0).
	g := voxel.NewCube(21)
	for y := 0; y < 21; y++ {
		g.Set(10, y, 10, true)
	}
	rot := PrincipalAxes(g)
	lead := rot.Row(0)
	if math.Abs(math.Abs(lead.Y)-1) > 1e-9 {
		t.Errorf("leading principal axis = %v, want ±e_y", lead)
	}
	if math.Abs(rot.Det()-1) > 1e-9 {
		t.Errorf("det = %v, want +1", rot.Det())
	}
}

func TestPrincipalAxesDegenerate(t *testing.T) {
	g := voxel.NewCube(5)
	if PrincipalAxes(g) != geom.Identity3() {
		t.Error("empty grid should yield identity")
	}
	g.Set(2, 2, 2, true)
	if PrincipalAxes(g) != geom.Identity3() {
		t.Error("single voxel should yield identity")
	}
}

func TestPCAVoxelizeRotationInvariant(t *testing.T) {
	// A rotated elongated box voxelizes (almost) like the axis-aligned
	// one after PCA alignment.
	// Distinct per-axis extents so the principal axes are unambiguous.
	base := csg.NewBox(geom.V(-3, -1, -0.4), geom.V(3, 1, 0.4))
	rot := csg.Transform(base, geom.Rotate(geom.RotationZ(math.Pi/5)))
	r := 20
	ga, _, _ := PCAVoxelize2(base, r, r)
	gb, _, _ := PCAVoxelize2(rot, r, r)
	// PCA sign ambiguity: compare under the best cube symmetry.
	best := math.MaxInt
	for _, s := range geom.RotoReflections() {
		if d := voxel.ApplySym(gb, s).XORCount(ga); d < best {
			best = d
		}
	}
	if float64(best) > 0.15*float64(ga.Count()) {
		t.Errorf("PCA-aligned voxelizations differ in %d of %d voxels", best, ga.Count())
	}
}
