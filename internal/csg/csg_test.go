package csg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/voxset/voxset/internal/geom"
)

func TestBoxContains(t *testing.T) {
	b := NewBox(geom.V(0, 0, 0), geom.V(1, 2, 3))
	if !b.Contains(geom.V(0.5, 1, 1.5)) {
		t.Error("center should be inside")
	}
	if b.Contains(geom.V(1.5, 1, 1)) {
		t.Error("outside point reported inside")
	}
}

func TestSphereContains(t *testing.T) {
	s := NewSphere(geom.V(1, 1, 1), 2)
	if !s.Contains(geom.V(1, 1, 1)) || !s.Contains(geom.V(3, 1, 1)) {
		t.Error("center/boundary should be inside")
	}
	if s.Contains(geom.V(3.01, 1, 1)) {
		t.Error("outside point reported inside")
	}
	bb := s.Bounds()
	if bb.Min != geom.V(-1, -1, -1) || bb.Max != geom.V(3, 3, 3) {
		t.Errorf("bounds = %v", bb)
	}
}

func TestCylinderContains(t *testing.T) {
	c := NewCylinder(geom.V(0, 0, 0), 2, 1, 4) // z-axis, r=1, len=4
	cases := []struct {
		p    geom.Vec3
		want bool
	}{
		{geom.V(0, 0, 0), true},
		{geom.V(0.9, 0, 1.9), true},
		{geom.V(0, 0, 2.1), false},
		{geom.V(1.1, 0, 0), false},
		{geom.V(0.8, 0.8, 0), false}, // corner of bounding box, outside circle
	}
	for _, tc := range cases {
		if got := c.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestCylinderAxes(t *testing.T) {
	for axis := 0; axis < 3; axis++ {
		c := NewCylinder(geom.V(0, 0, 0), axis, 1, 10)
		p := geom.Vec3{}.SetComponent(axis, 4.9)
		if !c.Contains(p) {
			t.Errorf("axis %d: point on axis should be inside", axis)
		}
		q := geom.Vec3{}.SetComponent((axis+1)%3, 1.5)
		if c.Contains(q) {
			t.Errorf("axis %d: radially distant point reported inside", axis)
		}
	}
}

func TestTorusContains(t *testing.T) {
	tor := NewTorus(geom.V(0, 0, 0), 2, 3, 1) // around z, major 3, minor 1
	if !tor.Contains(geom.V(3, 0, 0)) {
		t.Error("tube center should be inside")
	}
	if tor.Contains(geom.V(0, 0, 0)) {
		t.Error("hole center must be outside")
	}
	if !tor.Contains(geom.V(3, 0, 0.9)) {
		t.Error("point within tube should be inside")
	}
	if tor.Contains(geom.V(3, 0, 1.1)) {
		t.Error("point above tube should be outside")
	}
}

func TestHalfspace(t *testing.T) {
	h := NewHalfspace(geom.V(0, 0, 1), 0) // z <= 0
	if !h.Contains(geom.V(5, 5, -1)) || h.Contains(geom.V(0, 0, 0.1)) {
		t.Error("halfspace membership wrong")
	}
}

func TestBooleanOps(t *testing.T) {
	a := NewSphere(geom.V(0, 0, 0), 1)
	b := NewSphere(geom.V(1, 0, 0), 1)
	u := Union(a, b)
	i := Intersect(a, b)
	d := Difference(a, b)

	mid := geom.V(0.5, 0, 0)
	leftOnly := geom.V(-0.9, 0, 0)
	rightOnly := geom.V(1.9, 0, 0)

	if !u.Contains(mid) || !u.Contains(leftOnly) || !u.Contains(rightOnly) {
		t.Error("union misses points")
	}
	if !i.Contains(mid) || i.Contains(leftOnly) || i.Contains(rightOnly) {
		t.Error("intersection wrong")
	}
	if !d.Contains(leftOnly) || d.Contains(mid) || d.Contains(rightOnly) {
		t.Error("difference wrong")
	}
}

// Property: boolean identities hold pointwise for random solids and points.
func TestBooleanIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randSolid := func() Solid {
		c := geom.V(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2)
		switch rng.Intn(3) {
		case 0:
			return NewSphere(c, 0.5+rng.Float64())
		case 1:
			return NewBox(c, c.Add(geom.V(rng.Float64()+0.1, rng.Float64()+0.1, rng.Float64()+0.1)))
		default:
			return NewCylinder(c, rng.Intn(3), 0.3+rng.Float64(), 0.5+2*rng.Float64())
		}
	}
	for trial := 0; trial < 50; trial++ {
		a, b := randSolid(), randSolid()
		for n := 0; n < 40; n++ {
			p := geom.V(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4)
			inA, inB := a.Contains(p), b.Contains(p)
			if Union(a, b).Contains(p) != (inA || inB) {
				t.Fatal("union identity violated")
			}
			if Intersect(a, b).Contains(p) != (inA && inB) {
				t.Fatal("intersection identity violated")
			}
			if Difference(a, b).Contains(p) != (inA && !inB) {
				t.Fatal("difference identity violated")
			}
		}
	}
}

// Property: Bounds always contains every point reported inside.
func TestBoundsContainSolid(t *testing.T) {
	solids := []Solid{
		NewSphere(geom.V(1, 2, 3), 1.5),
		NewBox(geom.V(-1, -1, -1), geom.V(2, 0, 1)),
		NewCylinder(geom.V(0, 1, 0), 1, 0.7, 3),
		NewTorus(geom.V(0, 0, 0), 0, 2, 0.5),
		Union(NewSphere(geom.V(0, 0, 0), 1), NewBox(geom.V(2, 2, 2), geom.V(3, 3, 3))),
		Transform(NewBox(geom.V(-1, -1, -1), geom.V(1, 1, 1)),
			geom.Rotate(geom.RotationZ(math.Pi/5))),
	}
	f := func(x, y, z float64) bool {
		p := geom.V(math.Mod(x, 5), math.Mod(y, 5), math.Mod(z, 5))
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.Z) {
			return true
		}
		for _, s := range solids {
			if s.Contains(p) && !s.Bounds().Expand(1e-9).Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTransformRoundTrip(t *testing.T) {
	s := NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
	a := geom.Translate(geom.V(5, 0, 0))
	ts := Transform(s, a)
	if !ts.Contains(geom.V(5.5, 0.5, 0.5)) {
		t.Error("translated box should contain shifted center")
	}
	if ts.Contains(geom.V(0.5, 0.5, 0.5)) {
		t.Error("translated box should not contain original center")
	}
}

func TestTransformRotation(t *testing.T) {
	// A long thin box along x, rotated 90° about z, becomes long along y.
	s := NewBox(geom.V(-2, -0.1, -0.1), geom.V(2, 0.1, 0.1))
	ts := Transform(s, geom.Rotate(geom.RotationZ(math.Pi/2)))
	if !ts.Contains(geom.V(0, 1.9, 0)) {
		t.Error("rotated box should extend along y")
	}
	if ts.Contains(geom.V(1.9, 0, 0)) {
		t.Error("rotated box should not extend along x")
	}
}

func TestIntersectWithHalfspaceBounded(t *testing.T) {
	s := Intersect(NewSphere(geom.V(0, 0, 0), 1), NewHalfspace(geom.V(0, 0, 1), 0))
	if !s.Contains(geom.V(0, 0, -0.5)) || s.Contains(geom.V(0, 0, 0.5)) {
		t.Error("hemisphere membership wrong")
	}
	b := s.Bounds()
	if math.IsInf(b.Min.X, 0) || math.IsInf(b.Max.X, 0) {
		t.Error("intersection with sphere should yield finite bounds")
	}
}

func TestUnionSingleArg(t *testing.T) {
	s := NewSphere(geom.V(0, 0, 0), 1)
	if Union(s) != s || Intersect(s) != s {
		t.Error("single-arg Union/Intersect should return the solid unchanged")
	}
}
