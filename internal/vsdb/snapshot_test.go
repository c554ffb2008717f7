package vsdb

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/storage"
)

// randomDB builds a database of n random sets (dim, maxCard fixed) with a
// non-zero ω so the padded weight path is exercised too.
func randomDB(t *testing.T, seed int64, n int) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	omega := []float64{0.3, -0.1, 0.7, 0.2}
	db, err := Open(Config{Dim: 4, MaxCard: 5, Omega: omega})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		card := 1 + rng.Intn(5)
		set := make([][]float64, card)
		for j := range set {
			set[j] = make([]float64, 4)
			for k := range set[j] {
				set[j][k] = rng.NormFloat64()
			}
		}
		if err := db.Insert(uint64(i), set); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func randomQuery(rng *rand.Rand) [][]float64 {
	card := 1 + rng.Intn(5)
	q := make([][]float64, card)
	for j := range q {
		q[j] = make([]float64, 4)
		for k := range q[j] {
			q[j][k] = rng.NormFloat64()
		}
	}
	return q
}

// fingerprint returns db's durable state: the bytes SaveFile writes.
func fingerprint(t *testing.T, db *DB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fingerprint.vsnap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// reopen saves db with SaveFile and opens the file with opt; the opened
// database is closed when the test ends.
func reopen(t *testing.T, db *DB, opt LoadOptions) *DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.vsnap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenFile(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { back.Close() })
	return back
}

// TestSnapshotSaveIsDeterministic: SaveFile → OpenFile → SaveFile is a
// byte-level fixed point, the losslessness contract of DESIGN.md §7.
func TestSnapshotSaveIsDeterministic(t *testing.T) {
	db := randomDB(t, 1, 60)
	if !bytes.Equal(fingerprint(t, db), fingerprint(t, reopen(t, db, LoadOptions{}))) {
		t.Fatal("SaveFile → OpenFile → SaveFile changed the snapshot bytes")
	}
}

// An opened database preserves every stored set exactly.
func TestSnapshotRoundTripLossless(t *testing.T) {
	db := randomDB(t, 2, 40)
	back := reopen(t, db, LoadOptions{})
	if back.Len() != db.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), db.Len())
	}
	for _, id := range db.IDs() {
		a, b := db.Get(id), back.Get(id)
		if len(a) != len(b) {
			t.Fatalf("id %d: card %d vs %d", id, len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("id %d: vector %d component %d differs", id, i, j)
				}
			}
		}
	}
}

// Deleting before saving exercises the tombstone-aware save path; the
// opened database must contain exactly the live objects.
func TestSnapshotAfterDelete(t *testing.T) {
	db := randomDB(t, 3, 30)
	for id := uint64(0); id < 30; id += 3 {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	back := reopen(t, db, LoadOptions{})
	if back.Len() != db.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), db.Len())
	}
	rng := rand.New(rand.NewSource(9))
	q := randomQuery(rng)
	a, b := db.KNN(q, 7), back.KNN(q, 7)
	if len(a) != len(b) {
		t.Fatalf("KNN sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("KNN[%d] = %+v vs %+v", i, a[i], b[i])
		}
	}
}

// A flipped byte in the snapshot is rejected via checksum: by OpenFile,
// which verifies the header, offsets and centroid pages eagerly, or —
// for a vector page, verified on first touch — by Verify.
func TestSnapshotFlippedByteRejected(t *testing.T) {
	raw := fingerprint(t, randomDB(t, 4, 10))
	path := filepath.Join(t.TempDir(), "flipped.vsnap")
	// Sample positions across the file (the exhaustive sweep lives in
	// internal/snapshot; this guards the vsdb wrapping).
	for _, i := range []int{0, 7, 8, 20, storage.DefaultPageSize + 10, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenFile(path, LoadOptions{})
		if err == nil {
			db.Close()
			r, rerr := snapshot.OpenPaged(path, snapshot.PagedReaderOptions{})
			if rerr != nil {
				t.Fatal(rerr)
			}
			err = r.Verify()
			r.Close()
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("flip at byte %d: %v does not wrap snapshot.ErrCorrupt", i, err)
		}
	}
}

// Opening charges the configured tracker for exactly the pages it
// verifies — header, offsets and the centroid column, not a scan of the
// file — and the tracker stays attached for queries.
func TestLoadChargesTracker(t *testing.T) {
	raw := fingerprint(t, randomDB(t, 5, 50)) // 50 objects: one offsets page, one centroid page
	path := filepath.Join(t.TempDir(), "db.vsnap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var tr storage.Tracker
	back, err := OpenFile(path, LoadOptions{Tracker: &tr})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := tr.PageAccesses(); got != 3 {
		t.Errorf("pages charged for open = %d, want 3 (header, offsets, centroids)", got)
	}
	if got := tr.BytesRead(); got != 3*storage.DefaultPageSize {
		t.Errorf("bytes charged for open = %d, want %d", got, 3*storage.DefaultPageSize)
	}
	before := tr.PageAccesses()
	back.KNN(randomQuery(rand.New(rand.NewSource(6))), 3)
	if tr.PageAccesses() <= before {
		t.Error("query after open did not charge the tracker")
	}
}

// scanNeighbors is exhaustive ground truth: every stored object's exact
// minimal matching distance, ordered by the (dist, id) contract.
func scanNeighbors(db *DB, q [][]float64) []Neighbor {
	var out []Neighbor
	for _, id := range db.IDs() {
		out = append(out, Neighbor{ID: id, Dist: db.Distance(q, db.Get(id))})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.Dist < a.Dist || (b.Dist == a.Dist && b.ID < a.ID) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}

// TestKNNRangeParityAfterReopen: the filter pipeline of a
// snapshot-round-tripped database returns results identical to the
// exhaustive scan, for every query.
func TestKNNRangeParityAfterReopen(t *testing.T) {
	src := randomDB(t, 7, 80)
	db := reopen(t, src, LoadOptions{})
	rng := rand.New(rand.NewSource(100))
	for qi := 0; qi < 12; qi++ {
		q := randomQuery(rng)
		truth := scanNeighbors(db, q)

		k := 1 + rng.Intn(15)
		got := db.KNN(q, k)
		if len(got) != k {
			t.Fatalf("KNN returned %d results, want %d", len(got), k)
		}
		for i := range got {
			if got[i] != truth[i] {
				t.Fatalf("query %d: KNN[%d] = %+v, scan ground truth %+v",
					qi, i, got[i], truth[i])
			}
		}

		eps := truth[len(truth)/3].Dist // a radius with a non-trivial result set
		want := 0
		for _, nb := range truth {
			if nb.Dist <= eps {
				want++
			}
		}
		rgot := db.Range(q, eps)
		if len(rgot) != want {
			t.Fatalf("query %d: Range returned %d results, want %d",
				qi, len(rgot), want)
		}
		for i := range rgot {
			if rgot[i] != truth[i] {
				t.Fatalf("query %d: Range[%d] = %+v, want %+v",
					qi, i, rgot[i], truth[i])
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := randomDB(t, 8, 20)
	path := t.TempDir() + "/db.vsnap"
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if v, err := snapshot.SniffFile(path); err != nil || v != 2 {
		t.Fatalf("SniffFile = (%d, %v), want a paged snapshot", v, err)
	}
	back, err := OpenFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != db.Len() || !back.Mapped() {
		t.Fatalf("Len = %d (want %d), Mapped = %v", back.Len(), db.Len(), back.Mapped())
	}
	if _, err := OpenFile(path+".missing", LoadOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestBaseStoredInBlockOrder: a heap base stores its objects in the
// order a snapshot file of them does — the canonical block order, whatever
// order they arrived in — so a bulk-inserted batch and its saved, reopened
// file list their ids (DB.IDs) identically, a batch inserted in another
// order lists them identically too, and compacting the file-backed
// database changes nothing.
func TestBaseStoredInBlockOrder(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(8))
	ids := make([]uint64, n)
	sets := make([][][]float64, n)
	for i := range ids {
		ids[i], sets[i] = uint64(1000+3*i), randomQuery(rng)
	}
	bulk := func(order []int) *DB {
		db, err := Open(Config{Dim: 4, MaxCard: 5})
		if err != nil {
			t.Fatal(err)
		}
		var bIDs []uint64
		var bSets [][][]float64
		for _, i := range order {
			bIDs, bSets = append(bIDs, ids[i]), append(bSets, sets[i])
		}
		if err := db.BulkInsert(bIDs, bSets); err != nil {
			t.Fatal(err)
		}
		return db
	}
	heap := bulk(rng.Perm(n))
	if other := bulk(rng.Perm(n)); !slices.Equal(other.IDs(), heap.IDs()) {
		t.Fatal("the same objects bulk-inserted in another order are stored in another order")
	}
	if slices.IsSorted(heap.IDs()) {
		t.Fatal("a heap base of 300 objects is stored in id order, not block order")
	}
	path := filepath.Join(t.TempDir(), "db.vsnap")
	if err := heap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !slices.Equal(mapped.IDs(), heap.IDs()) {
		t.Fatal("the snapshot file stores the objects in another order than the heap base")
	}
	if err := mapped.Insert(1, randomQuery(rng)); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Delete(1); err != nil {
		t.Fatal(err)
	}
	mapped.Compact()
	if !slices.Equal(mapped.IDs(), heap.IDs()) {
		t.Fatal("compacting a base in block order reorders it")
	}
}
