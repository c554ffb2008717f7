package vsdb

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/voxset/voxset/internal/snapshot"
)

// buildSnapshot saves a randomized database as a snapshot file and
// returns the path plus the ids it holds.
func buildSnapshot(t *testing.T, seed int64, n int) (string, []uint64) {
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
	path := filepath.Join(t.TempDir(), "db.snap")
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

// v1FixtureAnswers is the SHA-256 of transcript(db, 42, 40) over
// testdata/v1.vsnap — a version-1 file an earlier build wrote from 300
// inserts, 10 deletes and 5 re-inserts (295 live objects, epoch 315) —
// as that build's heap-decoding loader answered it.
const v1FixtureAnswers = "d44a5906c8dd470f968f7ec920061122cce7a1b33408e8bc438cfedada0d22a0"

// TestOpenFileMigrationParity is the VXSNAP01 → VXSNAP02 migration
// suite: OpenFile on a version-1 file upgrades it in place, once, and the
// mapped result answers byte-for-byte what the heap decoder answered for
// the same file.
func TestOpenFileMigrationParity(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "v1.vsnap"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.vsnap")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path, LoadOptions{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if v, err := snapshot.SniffFile(path); err != nil || v != 2 {
		t.Fatalf("SniffFile after open = (%d, %v), want upgraded in place", v, err)
	}
	if db.Len() != 295 || db.Epoch() != 315 || !db.Mapped() {
		t.Fatalf("Len/Epoch/Mapped = %d/%d/%v, want 295/315/true", db.Len(), db.Epoch(), db.Mapped())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(transcript(db, 42, 40)))); got != v1FixtureAnswers {
		t.Fatalf("query transcript sha256 %s, want the heap decoder's %s", got, v1FixtureAnswers)
	}
	// Point lookups exercise snapStore's lazy id index.
	for _, id := range db.IDs()[:10] {
		if !db.cur.Load().live(id) || db.Get(id) == nil {
			t.Fatalf("id %d not live", id)
		}
	}
	upgraded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(upgraded, fingerprint(t, db)) {
		t.Fatalf("the upgraded file differs from the database's own SaveFile bytes")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The upgrade happens once: a second open maps the file as it is.
	db, err = OpenFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, upgraded) {
		t.Fatalf("a second open rewrote the upgraded file")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(transcript(db, 42, 40)))); got != v1FixtureAnswers {
		t.Fatalf("reopened transcript sha256 %s, want %s", got, v1FixtureAnswers)
	}
	db.Close()
}

// A corrupt version-1 file fails OpenFile with ErrCorrupt and is left
// exactly as it was, with no temporary file beside it.
func TestOpenFileV1CorruptLeftUntouched(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "v1.vsnap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.vsnap")
	for _, off := range []int{20, len(fixture) / 2, len(fixture) - 3} {
		mut := append([]byte(nil), fixture...)
		mut[off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := OpenFile(path, LoadOptions{}); !errors.Is(err, snapshot.ErrCorrupt) {
			if db != nil {
				db.Close()
			}
			t.Fatalf("flip at %d: OpenFile = %v, want ErrCorrupt", off, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, mut) {
			t.Fatalf("flip at %d: the corrupt file was modified", off)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("flip at %d: %d files left in the directory, want 1", off, len(ents))
		}
	}
}

// TestCheckpointOverMappedFile: Checkpoint onto the very file a database
// is mapped from, while readers query, installs a new file under the
// path; the mapping keeps the old one until Close. Reopening the path
// with the WAL restores the exact state.
func TestCheckpointOverMappedFile(t *testing.T) {
	path, ids := buildSnapshot(t, 0xbeef, 150)
	walPath := filepath.Join(t.TempDir(), "db.wal")
	opt := LoadOptions{WALPath: walPath, WALNoSync: true}
	db, err := OpenFile(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Mapped() {
		db.Close()
		t.Skip("snapshot not memory-mapped on this platform")
	}
	rng := rand.New(rand.NewSource(5))
	for i := uint64(0); i < 20; i++ {
		if err := db.Insert(90000+i, randSet(rng, 1+rng.Intn(5), 4)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[:15] {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	db.Compact() // the new heap base still aliases the mapped sets
	for i := uint64(20); i < 30; i++ {
		if err := db.Insert(90000+i, randSet(rng, 1+rng.Intn(5), 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(ids[20]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randSet(qrng, 1+qrng.Intn(5), 4)
				db.KNN(q, 5)
				db.Range(q, 8)
			}
		}(int64(r))
	}
	err = db.Checkpoint(path)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := db.WALRecords(); n != 0 {
		t.Fatalf("WALRecords = %d after checkpoint, want 0", n)
	}
	// A suffix past the checkpoint, for the reopen to replay.
	if err := db.Insert(95000, randSet(rng, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(ids[30]); err != nil {
		t.Fatal(err)
	}
	want, wantBytes, epoch := transcript(db, 11, 20), fingerprint(t, db), db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != epoch {
		t.Fatalf("reopened epoch %d, want %d", re.Epoch(), epoch)
	}
	if !bytes.Equal(fingerprint(t, re), wantBytes) {
		t.Fatal("reopened SaveFile bytes differ from the live database's")
	}
	if got := transcript(re, 11, 20); got != want {
		t.Fatal("reopened database answers KNN/range differently")
	}
}

// TestOpenFileMutationsAndWAL drives inserts, deletes, compaction and a
// WAL re-open against an mmap-backed database: mutations must layer over
// the mapped base exactly as over a heap base, and a crash-recovery
// open (same snapshot + WAL replay) must restore the state.
func TestOpenFileMutationsAndWAL(t *testing.T) {
	v2, ids := buildSnapshot(t, 0xcafe, 120)
	wal := filepath.Join(t.TempDir(), "wal")
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
