package vsdb

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vectorset"
)

// buildV1Snapshot saves a randomized database as a version-1 snapshot
// file and returns the path plus the ids it holds.
func buildV1Snapshot(t *testing.T, seed int64, n int) (string, []uint64) {
	t.Helper()
	db, err := Open(Config{Dim: 4, MaxCard: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(100 + i*3)
		if err := db.Insert(ids[i], randSet(rng, 1+rng.Intn(5), 4)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path, ids
}

// transcript runs a fixed randomized query workload and renders every
// result to a string: KNN and range answers, in order, with full
// float64 bit precision. Two databases serving the same logical state
// must produce byte-identical transcripts.
func transcript(db *DB, seed int64, queries int) string {
	rng := rand.New(rand.NewSource(seed))
	out := ""
	for qi := 0; qi < queries; qi++ {
		q := randSet(rng, 1+rng.Intn(5), 4)
		for _, nb := range db.KNN(q, 6) {
			out += fmt.Sprintf("k %d %d %b\n", qi, nb.ID, nb.Dist)
		}
		for _, nb := range db.Range(q, 8.0) {
			out += fmt.Sprintf("r %d %d %b\n", qi, nb.ID, nb.Dist)
		}
	}
	return out
}

// TestOpenFileMigrationParity is the VXSNAP01 → VXSNAP02 migration
// suite: a randomized v1 snapshot, converted to the paged layout, must
// answer an identical query workload byte-for-byte whether it is served
// heap-decoded (v1) or mmap-aliased (v2) — at one refinement worker and
// at several.
func TestOpenFileMigrationParity(t *testing.T) {
	v1, ids := buildV1Snapshot(t, 0xfeed, 400)
	v2 := filepath.Join(t.TempDir(), "v2.snap")
	if err := snapshot.ConvertFile(v1, v2, 0); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ref, err := OpenFile(v1, LoadOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want := transcript(ref, 42, 25)
		db, err := OpenFile(v2, LoadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("mmap/w=%d: %v", workers, err)
		}
		if db.Len() != len(ids) || db.Epoch() != ref.Epoch() {
			t.Fatalf("mmap/w=%d: Len/Epoch = %d/%d, want %d/%d",
				workers, db.Len(), db.Epoch(), len(ids), ref.Epoch())
		}
		if got := transcript(db, 42, 25); got != want {
			t.Fatalf("mmap/w=%d: query transcript diverges from the v1 heap path", workers)
		}
		// Point lookups exercise snapStore's lazy id index.
		for _, id := range ids[:10] {
			if !db.cur.Load().live(id) {
				t.Fatalf("mmap/w=%d: id %d not live", workers, id)
			}
			a, b := ref.Get(id), db.Get(id)
			if len(a) != len(b) {
				t.Fatalf("mmap/w=%d: Get(%d) cardinality %d vs %d", workers, id, len(b), len(a))
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenFileMutationsAndWAL drives inserts, deletes, compaction and a
// WAL re-open against an mmap-backed database: mutations must layer over
// the mapped base exactly as over a heap base, and a crash-recovery
// open (same snapshot + WAL replay) must restore the state.
func TestOpenFileMutationsAndWAL(t *testing.T) {
	v1, ids := buildV1Snapshot(t, 0xcafe, 120)
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.snap")
	if err := snapshot.ConvertFile(v1, v2, 0); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal")
	db, err := OpenFile(v2, LoadOptions{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if err := db.Delete(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(77777, randSet(rng, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(ids[3], randSet(rng, 2, 4)); err != nil {
		t.Fatal(err)
	}
	want := transcript(db, 7, 10)
	epoch := db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash recovery: open the same mapped snapshot, replay the WAL.
	db, err = OpenFile(v2, LoadOptions{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != epoch {
		t.Fatalf("recovered epoch %d, want %d", db.Epoch(), epoch)
	}
	if got := transcript(db, 7, 10); got != want {
		t.Fatal("recovered state answers queries differently")
	}
	// Compaction materializes the base to heap; the mapping itself stays
	// open (Close owns it) and answers must not change.
	db.Compact()
	if got := transcript(db, 7, 10); got != want {
		t.Fatal("compaction changed query answers")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkBuildFromStream round-trips a streamed build: the opened
// database serves exactly the streamed objects, and the file re-opens.
func TestBulkBuildFromStream(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(21))
	sets := make([]vectorset.Flat, n)
	for i := range sets {
		sets[i] = vectorset.FlatFromRows(randSet(rng, 1+rng.Intn(5), 4))
	}
	path := filepath.Join(t.TempDir(), "built.snap")
	i := 0
	db, err := BulkBuildFromStream(path, Config{Dim: 4, MaxCard: 5}, 12, func() (uint64, vectorset.Flat, error) {
		if i == n {
			return 0, vectorset.Flat{}, io.EOF
		}
		i++
		return uint64(i), sets[i-1], nil
	}, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != n || db.Epoch() != 12 {
		t.Fatalf("Len/Epoch = %d/%d, want %d/12", db.Len(), db.Epoch(), n)
	}
	want := transcript(db, 3, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := transcript(db, 3, 10); got != want {
		t.Fatal("re-opened snapshot answers queries differently")
	}
	db.Close()
}

// TestBulkBuildFromStreamRejectsBadInput covers duplicate ids, invalid
// sets, and a failing source; path must not exist afterwards.
func TestBulkBuildFromStreamRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	set := vectorset.FlatFromRows([][]float64{{1, 2, 3, 4}})
	cases := map[string]func(calls int) (uint64, vectorset.Flat, error){
		"duplicate id": func(calls int) (uint64, vectorset.Flat, error) {
			return 5, set, nil
		},
		"wrong dim": func(calls int) (uint64, vectorset.Flat, error) {
			return uint64(calls), vectorset.FlatFromRows([][]float64{{1, 2}}), nil
		},
		"source error": func(calls int) (uint64, vectorset.Flat, error) {
			if calls > 1 {
				return 0, vectorset.Flat{}, errors.New("disk on fire")
			}
			return uint64(calls), set, nil
		},
	}
	for name, src := range cases {
		path := filepath.Join(dir, name)
		calls := 0
		_, err := BulkBuildFromStream(path, Config{Dim: 4, MaxCard: 5}, 0, func() (uint64, vectorset.Flat, error) {
			calls++
			return src(calls)
		}, LoadOptions{})
		if err == nil {
			t.Fatalf("%s: build succeeded", name)
		}
		if _, serr := snapshot.SniffFile(path); serr == nil {
			t.Fatalf("%s: file left behind at %s", name, path)
		}
	}
}
