package vsdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/snapshot"
)

// TestOpenFileIgnoresLegacySketches: the snapshot package's two
// legacy-sketch fixtures — a VXSNAP02 file with a VXSKCH01 tail and a
// VXSNAP01 stream with an SKH chunk — open through OpenFile and answer
// every query exactly as their tail-less twin does: the same neighbours,
// the same funnel counters, the same epoch, and the same bytes saved.
func TestOpenFileIgnoresLegacySketches(t *testing.T) {
	dir := t.TempDir()
	copyFixture := func(name string) string {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tailed := copyFixture("sketch_tail.vsnap")
	chunked := copyFixture("sketch_chunk.v1.vsnap")
	// ConvertFile drops the tail; the snapshot tests pin its output to a
	// fresh write of the same objects.
	twin := filepath.Join(dir, "twin.vsnap")
	if err := snapshot.ConvertFile(tailed, twin, 0); err != nil {
		t.Fatal(err)
	}

	open := func(path string) *DB {
		t.Helper()
		db, err := OpenFile(path, LoadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	want := open(twin)
	dbs := map[string]*DB{"tailed": open(tailed), "chunked": open(chunked)}

	var qs []Query
	for _, id := range want.IDs() {
		set := want.Get(id)
		eps := want.KNN(set, 6)[5].Dist
		qs = append(qs,
			Query{Set: set, Kind: KNN, K: 1},
			Query{Set: set, Kind: KNN, K: 5},
			Query{Set: set, Kind: KNN, K: 30},
			Query{Set: set, Kind: Range, Eps: eps},
			Query{Set: set, Kind: KNN, K: 4, Match: SetQuery{Partial: true, I: 2}},
		)
	}
	want.ResetRefinements()
	wantAnswers := search(want, qs)
	wantStats := want.Stats()
	wantSaved := savedBytes(t, want)
	for name, db := range dbs {
		if db.Epoch() != want.Epoch() || db.Len() != want.Len() {
			t.Fatalf("%s: epoch %d len %d, twin %d / %d", name, db.Epoch(), db.Len(), want.Epoch(), want.Len())
		}
		db.ResetRefinements()
		if got := search(db, qs); !reflect.DeepEqual(got, wantAnswers) {
			t.Fatalf("%s: answers differ from the tail-less twin", name)
		}
		if got := db.Stats(); got != wantStats {
			t.Fatalf("%s: stats %+v, twin %+v", name, got, wantStats)
		}
		if !bytes.Equal(savedBytes(t, db), wantSaved) {
			t.Fatalf("%s: SaveFile bytes differ from the twin's", name)
		}
	}
}

func savedBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "saved.vsnap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
