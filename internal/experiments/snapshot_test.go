package experiments

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

func TestParseDataset(t *testing.T) {
	for name, want := range map[string]Dataset{"car": Car, "aircraft": Aircraft} {
		d, err := ParseDataset(name)
		if err != nil || d != want {
			t.Errorf("ParseDataset(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := ParseDataset("submarine"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// openCorrupt reports how a damaged snapshot file is rejected: by
// OpenFile, which verifies header, offsets and centroid pages eagerly,
// or — for a vector page, verified on first touch — by Verify.
func openCorrupt(path string) error {
	db, err := vsdb.OpenFile(path, vsdb.LoadOptions{})
	if err != nil {
		return err
	}
	db.Close()
	r, err := snapshot.OpenPaged(path, snapshot.PagedReaderOptions{})
	if err != nil {
		return err
	}
	defer r.Close()
	return r.Verify()
}

// TestSnapshotFingerprint212 is the acceptance fingerprint: the full
// 212-part dataset (car 200 + aircraft 12) is extracted, saved, opened
// and saved again — the two snapshots must be bit-identical, and a
// flipped byte anywhere in the file must be rejected.
func TestSnapshotFingerprint212(t *testing.T) {
	skipIfShort(t)
	parts := append(Car.Parts(7, 0), Aircraft.Parts(7, 12)...)
	if len(parts) != 212 {
		t.Fatalf("dataset has %d parts, want 212", len(parts))
	}
	e, err := BuildParallel(smallCfg(), parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildVectorSetDB(e, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "fp212.vsnap")
	if err := db.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := vsdb.OpenFile(snapPath, vsdb.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != db.Len() {
		t.Fatalf("opened %d objects, want %d", loaded.Len(), db.Len())
	}
	if second := vsdbtest.Fingerprint(t, loaded); !bytes.Equal(first, second) {
		t.Fatalf("SaveFile → OpenFile → SaveFile changed the snapshot: fingerprints %x vs %x",
			sha256.Sum256(first), sha256.Sum256(second))
	}
	t.Logf("212-part snapshot: %d objects, %d bytes, sha256 %x",
		db.Len(), len(first), sha256.Sum256(first))

	// Queries against the opened database match the original exactly.
	for _, id := range loaded.IDs()[:10] {
		a := db.KNN(db.Get(id), 5)
		b := loaded.KNN(loaded.Get(id), 5)
		if len(a) != len(b) {
			t.Fatalf("id %d: result sizes %d vs %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("id %d: neighbor %d differs: %+v vs %+v", id, i, a[i], b[i])
			}
		}
	}

	// Corruption detection across the file: flip one byte at sampled
	// positions and every open must fail with snapshot.ErrCorrupt.
	rng := rand.New(rand.NewSource(3))
	corruptPath := filepath.Join(dir, "corrupt.vsnap")
	for trial := 0; trial < 32; trial++ {
		pos := rng.Intn(len(first))
		corrupt := append([]byte(nil), first...)
		corrupt[pos] ^= 0x20
		if err := os.WriteFile(corruptPath, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := openCorrupt(corruptPath); err == nil {
			t.Fatalf("flipped byte at %d accepted", pos)
		} else if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("flipped byte at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}

	// Live-update round trip (DESIGN.md §8): attach a WAL to the opened
	// snapshot, run a delete + reinsert + insert + compact sequence, and
	// the re-snapshot of a second database reconstructed from the same
	// snapshot plus the WAL suffix must be bit-identical to the mutated
	// live database's snapshot.
	walPath := filepath.Join(dir, "fp212.wal")
	live, err := vsdb.OpenFile(snapPath, vsdb.LoadOptions{WALPath: walPath, WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := live.IDs()
	victims, donors := ids[:4], ids[10:14]
	maxID := uint64(0)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	for _, id := range victims {
		if err := live.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// Reinsert two victims with different payloads, add two new objects.
	for i, id := range []uint64{victims[0], victims[1], maxID + 1, maxID + 2} {
		if err := live.Insert(id, live.Get(donors[i])); err != nil {
			t.Fatal(err)
		}
	}
	live.Compact()
	liveSnap := vsdbtest.Fingerprint(t, live)
	probes := append([]uint64{victims[0], maxID + 1}, donors...)
	liveAnswers := make([][]vsdb.Neighbor, len(probes))
	for i, id := range probes {
		liveAnswers[i] = live.KNN(live.Get(id), 5)
	}
	liveEpoch := live.Epoch()
	if err := live.Close(); err != nil { // unmaps: live answers nothing after this
		t.Fatal(err)
	}

	replayed, err := vsdb.OpenFile(snapPath, vsdb.LoadOptions{WALPath: walPath, WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if replayed.Epoch() != liveEpoch {
		t.Fatalf("replayed epoch %d, live epoch %d", replayed.Epoch(), liveEpoch)
	}
	replayed.Compact() // match the live representation before snapshotting
	if replaySnap := vsdbtest.Fingerprint(t, replayed); !bytes.Equal(liveSnap, replaySnap) {
		t.Fatalf("snapshot→WAL-suffix→replay→re-snapshot fingerprints diverge: %x vs %x",
			sha256.Sum256(liveSnap), sha256.Sum256(replaySnap))
	}
	if got := replayed.Get(victims[0]); got == nil {
		t.Fatal("reinserted victim missing after replay")
	}
	for i, id := range probes {
		a, b := liveAnswers[i], replayed.KNN(replayed.Get(id), 5)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("id %d: neighbor %d differs after WAL replay: %+v vs %+v", id, j, a[j], b[j])
			}
		}
	}
}
