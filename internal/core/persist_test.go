package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
)

func TestSnapshotRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	e.AddParts(cadgen.CarDataset(13)[:12])

	var buf bytes.Buffer
	if err := e.SaveObjects(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != e.Len() {
		t.Fatalf("loaded %d objects, want %d", back.Len(), e.Len())
	}
	if back.Config() != e.Config() {
		t.Errorf("config mismatch: %+v vs %+v", back.Config(), e.Config())
	}
	for i := range e.Objects() {
		a, b := e.Objects()[i], back.Objects()[i]
		if a.Name != b.Name || a.Class != b.Class || a.ID != b.ID {
			t.Fatalf("object %d metadata mismatch", i)
		}
		if d := e.Distance(ModelVectorSet, InvNone, a, b); d != 0 {
			t.Fatalf("object %d features changed: distance %v", i, d)
		}
		if d := e.Distance(ModelVolume, InvNone, a, b); d != 0 {
			t.Fatalf("object %d histogram changed: distance %v", i, d)
		}
	}
	// Distances across the loaded engine must match the original exactly.
	objs, lobjs := e.Objects(), back.Objects()
	for i := 0; i < 5; i++ {
		for j := 0; j < len(objs); j++ {
			want := e.Distance(ModelVectorSet, InvRotoReflection, objs[i], objs[j])
			got := back.Distance(ModelVectorSet, InvRotoReflection, lobjs[i], lobjs[j])
			if want != got {
				t.Fatalf("distance(%d,%d) changed after reload: %v vs %v", i, j, want, got)
			}
		}
	}
}

func TestLoadEngineRejectsGarbage(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("not a gzip stream")); err == nil {
		t.Error("expected error for garbage input")
	}
}
