package meshquery

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/voxel"
)

func TestExtractShapeAndDeterminism(t *testing.T) {
	m := mesh.NewSphere(geom.Vec3{}, 1.0, 24, 16)
	cfg := DefaultConfig()
	a, err := Extract(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Set) == 0 || len(a.Set) > cfg.Covers {
		t.Fatalf("set has %d covers, want 1..%d", len(a.Set), cfg.Covers)
	}
	for i, v := range a.Set {
		if len(v) != 6 {
			t.Fatalf("cover %d has dim %d, want 6", i, len(v))
		}
	}
	if a.Triangles != len(m.Triangles) || a.Voxels == 0 {
		t.Fatalf("bad result metadata: %+v", a)
	}
	b, err := Extract(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two extractions of the same mesh differ")
	}
}

// TestExtractWorkerInvariance: Extract voxelizes with one worker, and
// the set it extracts equals the one a four-worker voxelization of the
// same mesh gives — the served parity contract depends on it.
func TestExtractWorkerInvariance(t *testing.T) {
	m := mesh.NewSphere(geom.Vec3{X: 0.3, Y: -0.2}, 0.8, 20, 12)
	cfg := DefaultConfig()
	a, err := Extract(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := CoverSet(voxel.VoxelizeMeshWorkers(m, m.Bounds(), cfg.RCover, 4), cfg.Covers)
	if !reflect.DeepEqual(a.Set, b) {
		t.Fatalf("workers=1 set %v != workers=4 set %v", a.Set, b)
	}
}

// TestExtractNormalization: a translated and uniformly scaled copy of
// the mesh extracts the identical vector set (the grid placement
// normalizes pose and size).
func TestExtractNormalization(t *testing.T) {
	m := mesh.NewBox(geom.Vec3{}, geom.Vec3{X: 1, Y: 0.5, Z: 0.25})
	moved := mesh.NewBox(geom.Vec3{X: 10, Y: -3, Z: 7}, geom.Vec3{X: 12, Y: -2, Z: 7.5})
	a, err := Extract(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(moved, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Set, b.Set) {
		t.Fatalf("translation+scale changed the set:\n%v\nvs\n%v", a.Set, b.Set)
	}
}

// TestExtractNonFinite: a NaN or infinite coordinate in any vertex of a
// triangle is ErrNonFinite from Voxelize and Extract alike, where it used
// to reach the voxelizer as a NaN cell size; a finite mesh extracts.
func TestExtractNonFinite(t *testing.T) {
	type row struct {
		name   string
		vertex int // 0, 1, 2: A, B, C
		value  float64
	}
	rows := []row{{name: "valid", vertex: -1}}
	for vi, v := range []string{"A", "B", "C"} {
		for _, bad := range []struct {
			name  string
			value float64
		}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}} {
			rows = append(rows, row{v + "=" + bad.name, vi, bad.value})
		}
	}
	for i, tc := range rows {
		m := mesh.NewBox(geom.Vec3{}, geom.Vec3{X: 1, Y: 0.5, Z: 0.25})
		if tc.vertex >= 0 {
			tr := &m.Triangles[3]
			v := [...]*geom.Vec3{&tr.A, &tr.B, &tr.C}[tc.vertex]
			*v = v.SetComponent(i%3, tc.value) // cycle the coordinate too
		}
		_, verr := Voxelize(m, DefaultConfig())
		_, eerr := Extract(m, DefaultConfig())
		if tc.vertex < 0 {
			if verr != nil || eerr != nil {
				t.Fatalf("%s: Voxelize %v, Extract %v, want no error", tc.name, verr, eerr)
			}
			continue
		}
		if !errors.Is(verr, ErrNonFinite) || !errors.Is(eerr, ErrNonFinite) {
			t.Fatalf("%s: Voxelize %v, Extract %v, want ErrNonFinite", tc.name, verr, eerr)
		}
	}
}

// TestExtractViewMatchesParse: on every upload body of the mesh-upload
// benchmark, extraction over the body read in place (mesh.ViewSTL) gives
// exactly the result of extraction over the parsed mesh.
func TestExtractViewMatchesParse(t *testing.T) {
	cfg := DefaultConfig()
	for i, body := range uploadBodies() {
		m, err := mesh.ParseSTL(body)
		if err != nil {
			t.Fatal(err)
		}
		v, err := mesh.ViewSTL(body)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Extract(m, cfg)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		got, err := Extract(v, cfg)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d: view extracted %+v (%v), parsed mesh %+v", i, got, err, want)
		}
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := Extract(&mesh.Mesh{Name: "empty"}, DefaultConfig()); !errors.Is(err, ErrEmptyMesh) {
		t.Fatalf("empty mesh: got %v, want ErrEmptyMesh", err)
	}
	if _, err := Extract(nil, DefaultConfig()); !errors.Is(err, ErrEmptyMesh) {
		t.Fatalf("nil mesh: got %v, want ErrEmptyMesh", err)
	}
	var none *mesh.Mesh // a nil *Mesh is a non-nil Triangles
	if _, err := Extract(none, DefaultConfig()); !errors.Is(err, ErrEmptyMesh) {
		t.Fatalf("nil *mesh.Mesh: got %v, want ErrEmptyMesh", err)
	}
	if _, err := Extract(mesh.NewBox(geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1}), Config{RCover: 0, Covers: 7}); err == nil {
		t.Fatal("RCover=0 accepted")
	}
	if _, err := Extract(mesh.NewBox(geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1}), Config{RCover: 15, Covers: 0}); err == nil {
		t.Fatal("Covers=0 accepted")
	}
}
