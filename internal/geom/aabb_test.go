package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAABBEmpty(t *testing.T) {
	e := EmptyAABB()
	if !e.IsEmpty() {
		t.Error("EmptyAABB should be empty")
	}
	if e.Volume() != 0 {
		t.Errorf("empty volume = %v", e.Volume())
	}
	if e.Size() != (Vec3{}) {
		t.Errorf("empty size = %v", e.Size())
	}
}

func TestAABBUnionIdentity(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 2, 3))
	if got := b.Union(EmptyAABB()); got != b {
		t.Errorf("b ∪ ∅ = %v", got)
	}
	if got := EmptyAABB().Union(b); got != b {
		t.Errorf("∅ ∪ b = %v", got)
	}
}

func TestAABBBoxNormalizesCorners(t *testing.T) {
	b := Box(V(5, -1, 2), V(1, 4, 0))
	if b.Min != V(1, -1, 0) || b.Max != V(5, 4, 2) {
		t.Errorf("Box corners = %v %v", b.Min, b.Max)
	}
}

func TestAABBContains(t *testing.T) {
	b := Box(V(0, 0, 0), V(2, 2, 2))
	if !b.Contains(V(1, 1, 1)) || !b.Contains(V(0, 0, 0)) || !b.Contains(V(2, 2, 2)) {
		t.Error("box should contain interior and boundary points")
	}
	if b.Contains(V(3, 1, 1)) || b.Contains(V(1, -0.1, 1)) {
		t.Error("box should not contain outside points")
	}
}

func TestAABBIntersect(t *testing.T) {
	a := Box(V(0, 0, 0), V(2, 2, 2))
	b := Box(V(1, 1, 1), V(3, 3, 3))
	i := a.Intersect(b)
	if i.Min != V(1, 1, 1) || i.Max != V(2, 2, 2) {
		t.Errorf("intersection = %v", i)
	}
	c := Box(V(5, 5, 5), V(6, 6, 6))
	if !a.Intersect(c).IsEmpty() {
		t.Error("disjoint intersection should be empty")
	}
}

func TestAABBVolume(t *testing.T) {
	b := Box(V(0, 0, 0), V(2, 3, 4))
	if b.Volume() != 24 {
		t.Errorf("volume = %v", b.Volume())
	}
}

// Property: the intersection volume never exceeds either input volume, and
// union contains both inputs.
func TestAABBUnionIntersectProperties(t *testing.T) {
	f := func(a0, a1, b0, b1 [3]float64) bool {
		a := Box(vecFrom(a0), vecFrom(a1))
		b := Box(vecFrom(b0), vecFrom(b1))
		u := a.Union(b)
		i := a.Intersect(b)
		if !u.Contains(a.Min) || !u.Contains(a.Max) || !u.Contains(b.Min) || !u.Contains(b.Max) {
			return false
		}
		if !i.IsEmpty() && (i.Volume() > a.Volume()+1e-9 || i.Volume() > b.Volume()+1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func vecFrom(a [3]float64) Vec3 {
	return V(clamp(a[0]), clamp(a[1]), clamp(a[2]))
}

func TestAABBTransform(t *testing.T) {
	b := Box(V(-1, -1, -1), V(1, 1, 1))
	// Rotating the unit cube by 45° about z expands x/y extent to √2.
	r := b.Transform(Rotate(RotationZ(math.Pi / 4)))
	want := math.Sqrt2
	if math.Abs(r.Max.X-want) > 1e-12 || math.Abs(r.Max.Y-want) > 1e-12 {
		t.Errorf("rotated box = %v", r)
	}
	if math.Abs(r.Max.Z-1) > 1e-12 {
		t.Errorf("z extent should be unchanged, got %v", r.Max.Z)
	}
}

func TestAABBExpandAddPoint(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1)).Expand(0.5)
	if b.Min != V(-0.5, -0.5, -0.5) || b.Max != V(1.5, 1.5, 1.5) {
		t.Errorf("expand = %v", b)
	}
	c := EmptyAABB().AddPoint(V(1, 2, 3))
	if c.Min != V(1, 2, 3) || c.Max != V(1, 2, 3) {
		t.Errorf("AddPoint on empty = %v", c)
	}
	c = c.AddPoint(V(-1, 5, 0))
	if c.Min != V(-1, 2, 0) || c.Max != V(1, 5, 3) {
		t.Errorf("AddPoint = %v", c)
	}
}
