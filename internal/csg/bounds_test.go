package csg_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
)

// boundsSlack is the widening, relative to the largest coordinate
// magnitude, that the voxelizers apply to a solid's Bounds before they
// count the cells outside it empty (voxel.cellRange).
const boundsSlack = 1e-9

// TestPlacedFamiliesStayInBounds checks the Bounds contract on what the
// datasets actually store: every car and aircraft family, bare and under
// the random translation, 90° rotation and anisotropic scaling cadgen
// places parts with. Random points beyond Bounds plus the slack — far
// beyond, and just past it on one axis — are never contained.
func TestPlacedFamiliesStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var solids []csg.Solid
	for _, build := range []func(*rand.Rand) csg.Solid{
		cadgen.Tire, cadgen.Door, cadgen.Fender, cadgen.EngineBlock, cadgen.SeatEnvelope, cadgen.MiscBracket,
		cadgen.Nut, cadgen.Bolt, cadgen.Washer, cadgen.Rivet, cadgen.AircraftBracket, cadgen.Wing,
	} {
		solids = append(solids, build(rng))
	}
	parts := append(cadgen.CarDataset(1), cadgen.AircraftDataset(2, 600)...)
	for _, p := range parts {
		solids = append(solids, p.Solid)
	}
	for si, s := range solids {
		b := s.Bounds()
		mag := math.Max(b.Min.Abs().MaxComponent(), b.Max.Abs().MaxComponent())
		slack := boundsSlack * mag
		size := b.Size()
		for trial := 0; trial < 200; trial++ {
			var p geom.Vec3
			for a := 0; a < 3; a++ {
				p = p.SetComponent(a, b.Min.Component(a)+rng.Float64()*size.Component(a))
			}
			// Push one axis (sometimes two) past the slack, by a distance
			// from one ulp beyond it to a part's size.
			for k := 0; k < 1+trial%2; k++ {
				a := rng.Intn(3)
				past := slack * (1 + math.Pow(2, -float64(rng.Intn(40)))*float64(rng.Intn(2)))
				if trial%3 == 0 {
					past += rng.Float64() * size.MaxComponent()
				}
				past = math.Nextafter(past, math.Inf(1))
				if rng.Intn(2) == 0 {
					p = p.SetComponent(a, b.Min.Component(a)-past)
				} else {
					p = p.SetComponent(a, b.Max.Component(a)+past)
				}
			}
			if s.Contains(p) {
				t.Fatalf("solid %d: %v is contained, beyond its bounds %v plus the slack", si, p, b)
			}
		}
	}
}

// TestBoundsFacesAreClosed shows why a voxelizer must keep the cells whose
// centers lie exactly on a face of Bounds: for the primitives, Bounds is
// tight, and points on its faces where the solid touches them are inside.
func TestBoundsFacesAreClosed(t *testing.T) {
	cases := []struct {
		s  csg.Solid
		on []geom.Vec3
	}{
		{csg.NewBox(geom.V(-1, 0.5, 2), geom.V(3, 1.5, 2.25)),
			[]geom.Vec3{geom.V(-1, 1, 2.1), geom.V(3, 1, 2.1), geom.V(1, 0.5, 2.1), geom.V(1, 1.5, 2.1), geom.V(1, 1, 2), geom.V(1, 1, 2.25)}},
		{csg.NewSphere(geom.V(0.5, -1, 2), 0.75),
			[]geom.Vec3{geom.V(-0.25, -1, 2), geom.V(1.25, -1, 2), geom.V(0.5, -1.75, 2), geom.V(0.5, -0.25, 2), geom.V(0.5, -1, 1.25), geom.V(0.5, -1, 2.75)}},
		{csg.NewCylinder(geom.V(0, 0, 1), 2, 0.5, 3),
			[]geom.Vec3{geom.V(0, 0, -0.5), geom.V(0, 0, 2.5), geom.V(0.5, 0, 1), geom.V(0, -0.5, 1)}},
		{csg.NewCone(geom.V(1, 1, 1), 0, 1, 2, 0.5),
			[]geom.Vec3{geom.V(1, 1, 1), geom.V(3, 1, 1), geom.V(3, 1.5, 1), geom.V(3, 1, 0.5)}},
		{csg.NewTorus(geom.V(0, 0, 0), 2, 1, 0.25),
			[]geom.Vec3{geom.V(1.25, 0, 0), geom.V(0, -1.25, 0), geom.V(1, 0, 0.25), geom.V(1, 0, -0.25)}},
	}
	for i, c := range cases {
		b := c.s.Bounds()
		for _, p := range c.on {
			onFace := false
			for a := 0; a < 3; a++ {
				onFace = onFace || p.Component(a) == b.Min.Component(a) || p.Component(a) == b.Max.Component(a)
			}
			if !onFace || !b.Contains(p) {
				t.Fatalf("case %d: %v is not on a face of %v", i, p, b)
			}
			if !c.s.Contains(p) {
				t.Errorf("case %d: %v on a face of the bounds is not contained", i, p)
			}
		}
	}
}
