package mesh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/voxset/voxset/internal/geom"
)

func TestBoxMeshVolumeAndArea(t *testing.T) {
	m := NewBox(geom.V(0, 0, 0), geom.V(2, 3, 4))
	if got := m.Volume(); math.Abs(got-24) > 1e-9 {
		t.Errorf("volume = %v, want 24", got)
	}
	want := 2 * (2*3 + 3*4 + 2*4)
	if got := m.SurfaceArea(); math.Abs(got-float64(want)) > 1e-9 {
		t.Errorf("area = %v, want %v", got, want)
	}
	if len(m.Triangles) != 12 {
		t.Errorf("box has %d triangles, want 12", len(m.Triangles))
	}
}

func TestSphereMeshConvergesToBallVolume(t *testing.T) {
	r := 1.5
	m := NewSphere(geom.V(0, 0, 0), r, 64, 32)
	want := 4.0 / 3 * math.Pi * r * r * r
	got := m.Volume()
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("sphere volume = %v, want ≈ %v", got, want)
	}
}

func TestCylinderMeshVolume(t *testing.T) {
	m := NewCylinder(geom.V(1, 1, 1), 2, 5, 128)
	want := math.Pi * 4 * 5
	got := m.Volume()
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("cylinder volume = %v, want ≈ %v", got, want)
	}
}

func TestTorusMeshVolume(t *testing.T) {
	m := NewTorus(geom.V(0, 0, 0), 3, 1, 96, 48)
	want := 2 * math.Pi * math.Pi * 3 * 1 * 1 // 2π²·R·r²
	got := m.Volume()
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("torus volume = %v, want ≈ %v", got, want)
	}
}

func TestMeshBounds(t *testing.T) {
	m := NewBox(geom.V(-1, 0, 2), geom.V(1, 5, 3))
	b := m.Bounds()
	if b.Min != geom.V(-1, 0, 2) || b.Max != geom.V(1, 5, 3) {
		t.Errorf("bounds = %v", b)
	}
	empty := &Mesh{}
	if !empty.Bounds().IsEmpty() {
		t.Error("empty mesh should have empty bounds")
	}
}

func TestMeshTransformPreservesVolume(t *testing.T) {
	m := NewBox(geom.V(0, 0, 0), geom.V(1, 2, 3))
	rot := m.Transform(geom.Rotate(geom.RotationY(0.37)))
	if math.Abs(rot.Volume()-6) > 1e-9 {
		t.Errorf("rotated volume = %v", rot.Volume())
	}
	// Reflection flips winding but volume must stay positive.
	refl := m.Transform(geom.ScaleAffine(geom.V(-1, 1, 1)))
	if math.Abs(refl.Volume()-6) > 1e-9 {
		t.Errorf("reflected volume = %v (winding not fixed?)", refl.Volume())
	}
}

func TestMeshMerge(t *testing.T) {
	a := NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
	b := NewBox(geom.V(2, 2, 2), geom.V(3, 3, 3))
	n := len(a.Triangles)
	a.Merge(b)
	if len(a.Triangles) != n+len(b.Triangles) {
		t.Error("merge should append triangles")
	}
}

func TestSTLBinaryRoundTrip(t *testing.T) {
	m := NewSphere(geom.V(0.5, -1, 2), 1.25, 16, 8)
	var buf bytes.Buffer
	if err := WriteSTL(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSTL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Triangles) != len(m.Triangles) {
		t.Fatalf("triangle count %d, want %d", len(back.Triangles), len(m.Triangles))
	}
	for i := range m.Triangles {
		if !back.Triangles[i].A.ApproxEqual(m.Triangles[i].A, 1e-5) {
			t.Fatalf("triangle %d vertex A differs", i)
		}
	}
	if math.Abs(back.Volume()-m.Volume()) > 1e-3 {
		t.Errorf("round-trip volume %v vs %v", back.Volume(), m.Volume())
	}
}

func TestSTLASCIIRoundTrip(t *testing.T) {
	m := NewBox(geom.V(0, 0, 0), geom.V(1, 2, 3))
	m.Name = "unitish"
	var buf bytes.Buffer
	if err := WriteSTLASCII(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSTL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "unitish" {
		t.Errorf("name = %q", back.Name)
	}
	if len(back.Triangles) != 12 {
		t.Fatalf("triangle count = %d", len(back.Triangles))
	}
	if math.Abs(back.Volume()-6) > 1e-9 {
		t.Errorf("volume = %v", back.Volume())
	}
}

func TestSTLRejectsTruncatedBinary(t *testing.T) {
	m := NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1))
	var buf bytes.Buffer
	if err := WriteSTL(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadSTL(bytes.NewReader(data[:90])); err == nil {
		t.Error("expected error for truncated binary STL")
	}
	if _, err := ReadSTL(bytes.NewReader(data[:40])); err == nil {
		t.Error("expected error for file shorter than header")
	}
}

func TestSTLRejectsMalformedASCII(t *testing.T) {
	bad := "solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0\nendloop\nendfacet\nendsolid x\n"
	if _, err := ReadSTL(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("expected error for malformed vertex line")
	}
	bad2 := "solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\nvertex 1 0 0\nendloop\nendfacet\nendsolid x\n"
	if _, err := ReadSTL(bytes.NewReader([]byte(bad2))); err == nil {
		t.Error("expected error for facet with 2 vertices")
	}
}

func TestTriangleNormalAndArea(t *testing.T) {
	tr := Triangle{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0)}
	n := tr.Normal()
	if !n.Normalize().ApproxEqual(geom.V(0, 0, 1), 1e-12) {
		t.Errorf("normal = %v", n)
	}
	if tr.Area() != 0.5 {
		t.Errorf("area = %v", tr.Area())
	}
}

// binarySTLWithVertex returns a one-triangle binary STL whose first
// vertex has the given float32 x coordinate.
func binarySTLWithVertex(x float32) []byte {
	var buf bytes.Buffer
	_ = WriteSTL(&buf, &Mesh{Triangles: []Triangle{{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0)}}})
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[84+12:], math.Float32bits(x))
	return data
}

// TestSTLNonFiniteVertices: a NaN, infinite or beyond-float32 vertex is
// rejected by both parsers with the explicit error (it used to surface
// only as an "empty grid" after NaN had propagated through Bounds),
// whichever of the triangle's nine coordinates holds it; a huge but
// finite one is the parser's to accept. ViewSTL returns the same error.
func TestSTLNonFiniteVertices(t *testing.T) {
	ascii := func(x string) []byte {
		return []byte("solid s\nfacet normal 0 0 1\nouter loop\nvertex " + x +
			" 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid s\n")
	}
	inf := float32(math.Inf(1))
	type row struct {
		name string
		data []byte
		ok   bool
	}
	rows := []row{
		{"binary NaN", binarySTLWithVertex(float32(math.NaN())), false},
		{"binary +Inf", binarySTLWithVertex(inf), false},
		{"binary -Inf", binarySTLWithVertex(-inf), false},
		{"binary 1e30", binarySTLWithVertex(1e30), true},
		{"ascii NaN", ascii("NaN"), false},
		{"ascii Inf", ascii("Inf"), false},
		{"ascii -inf", ascii("-inf"), false},
		{"ascii 1e39 (beyond float32)", ascii("1e39"), false},
		{"ascii 1e30", ascii("1e30"), true},
	}
	for c := 1; c < 9; c++ { // coordinate 0 is binarySTLWithVertex's
		data := binarySTLWithVertex(0)
		binary.LittleEndian.PutUint32(data[84+12+4*c:], math.Float32bits(-inf))
		rows = append(rows, row{fmt.Sprintf("binary -Inf at coordinate %d", c), data, false})
	}
	for _, tc := range rows {
		if _, verr := ViewSTL(tc.data); tc.ok != (verr == nil) || (verr != nil && !errors.Is(verr, errNonFinite)) {
			t.Errorf("%s: view error %v", tc.name, verr)
		}
		m, err := ParseSTL(tc.data)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.ok:
			if b := m.Bounds(); math.Abs(b.Max.X-1e30) > 1e23 { // float32 precision
				t.Errorf("%s: bounds %v", tc.name, b)
			}
		case !errors.Is(err, errNonFinite) || m != nil:
			t.Errorf("%s: err = %v (mesh %v), want %v", tc.name, err, m, errNonFinite)
		}
	}
}

// TestSTLForgedCount: the triangle slice is sized from the header only
// after the header has been checked against the bytes present.
func TestSTLForgedCount(t *testing.T) {
	data := binarySTLWithVertex(0)
	binary.LittleEndian.PutUint32(data[80:], math.MaxUint32)
	if _, err := ParseSTL(data); err == nil {
		t.Fatal("a header declaring 4 Gi triangles over 50 bytes was accepted")
	}
}

// TestMeshBoundsMatchesUnion holds the one-pass Bounds to the union of
// the per-triangle boxes it replaced.
func TestMeshBoundsMatchesUnion(t *testing.T) {
	m := NewTorus(geom.V(3, -2, 0.5), 2, 0.7, 24, 12)
	m.Merge(NewBox(geom.V(-9, 0, 0), geom.V(-8, 1, 7)))
	want := geom.EmptyAABB()
	for _, tr := range m.Triangles {
		want = want.Union(geom.AABB{Min: tr.A.Min(tr.B).Min(tr.C), Max: tr.A.Max(tr.B).Max(tr.C)})
	}
	if got := m.Bounds(); got != want {
		t.Fatalf("Bounds() = %v, union of triangle bounds %v", got, want)
	}
	if !(&Mesh{}).Bounds().IsEmpty() {
		t.Fatal("an empty mesh has non-empty bounds")
	}
}
