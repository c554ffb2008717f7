package vsdb

import (
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/wal"
)

func TestApplyRecordStrictSequence(t *testing.T) {
	db := openTestDB(t)
	set := [][]float64{{1, 2, 3, 4}}
	if err := db.ApplyRecord(wal.Record{Seq: 1, Op: wal.OpInsert, ID: 7, Set: set}); err != nil {
		t.Fatalf("ApplyRecord seq 1: %v", err)
	}
	if got := db.Epoch(); got != 1 {
		t.Fatalf("Epoch = %d, want 1", got)
	}
	if db.Get(7) == nil {
		t.Fatal("applied insert is not visible")
	}
	// A gap must be rejected before touching state.
	if err := db.ApplyRecord(wal.Record{Seq: 3, Op: wal.OpDelete, ID: 7}); err == nil {
		t.Fatal("ApplyRecord accepted a sequence gap")
	}
	// A stale (duplicate) record is equally a divergence signal here —
	// deduplication is the follower's job, not the standby's.
	if err := db.ApplyRecord(wal.Record{Seq: 1, Op: wal.OpInsert, ID: 8, Set: set}); err == nil {
		t.Fatal("ApplyRecord accepted a stale sequence")
	}
	if err := db.ApplyRecord(wal.Record{Seq: 2, Op: wal.OpDelete, ID: 7}); err != nil {
		t.Fatalf("ApplyRecord seq 2: %v", err)
	}
	if db.Get(7) != nil {
		t.Fatal("applied delete left the object visible")
	}
	// A conflicting record at the right sequence (insert of a live id)
	// must fail — strict replay refuses to diverge silently.
	if err := db.ApplyRecord(wal.Record{Seq: 3, Op: wal.OpInsert, ID: 9, Set: set}); err != nil {
		t.Fatalf("ApplyRecord seq 3: %v", err)
	}
	if err := db.ApplyRecord(wal.Record{Seq: 4, Op: wal.OpInsert, ID: 9, Set: set}); err == nil {
		t.Fatal("ApplyRecord accepted an insert of a live id")
	}
}

func TestReplayWALFileBootstrapsStandby(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "shard.wal")
	cfg := Config{Dim: 4, MaxCard: 5, WALPath: walPath, WALNoSync: true}
	primary, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for id := uint64(1); id <= 20; id++ {
		if err := primary.Insert(id, randSet(rng, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Delete(5); err != nil {
		t.Fatal(err)
	}

	standby, err := Open(Config{Dim: 4, MaxCard: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.ReplayWALFile(walPath); err != nil {
		t.Fatalf("ReplayWALFile: %v", err)
	}
	if standby.Epoch() != primary.Epoch() {
		t.Fatalf("standby epoch %d, primary %d", standby.Epoch(), primary.Epoch())
	}
	if standby.Len() != primary.Len() {
		t.Fatalf("standby holds %d objects, primary %d", standby.Len(), primary.Len())
	}
	if standby.Get(5) != nil {
		t.Fatal("deleted object resurrected on the standby")
	}
	// Replaying again is a no-op: every record is at or below the epoch.
	if err := standby.ReplayWALFile(walPath); err != nil {
		t.Fatalf("second ReplayWALFile: %v", err)
	}
	if standby.Epoch() != primary.Epoch() {
		t.Fatal("idempotent replay moved the epoch")
	}
	primary.Close()
}

func TestReplayWALFileMissingIsNoop(t *testing.T) {
	db := openTestDB(t)
	if err := db.ReplayWALFile(filepath.Join(t.TempDir(), "absent.wal")); err != nil {
		t.Fatalf("missing WAL should be an empty history, got %v", err)
	}
}

func TestReplayWALFileRejectsGapAndMismatch(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "shard.wal")
	primary, err := Open(Config{Dim: 4, MaxCard: 5, WALPath: walPath, WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for id := uint64(1); id <= 5; id++ {
		if err := primary.Insert(id, randSet(rng, 2, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint truncates the log: its base sequence moves to 5. A
	// fresh standby at epoch 0 would be missing records 1..5 — replay
	// must refuse the gap rather than build a partial state.
	snap := filepath.Join(dir, "snap.vxs")
	if err := primary.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if err := primary.Insert(6, randSet(rng, 2, 4)); err != nil {
		t.Fatal(err)
	}
	empty := openTestDB(t)
	if err := empty.ReplayWALFile(walPath); err == nil {
		t.Fatal("ReplayWALFile accepted a log starting beyond the standby's epoch")
	}

	// A standby bootstrapped from the checkpoint snapshot adopts the
	// truncated log's suffix cleanly.
	fromSnap, err := OpenFile(snap, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fromSnap.Close()
	if err := fromSnap.ReplayWALFile(walPath); err != nil {
		t.Fatalf("ReplayWALFile after snapshot bootstrap: %v", err)
	}
	if fromSnap.Epoch() != primary.Epoch() {
		t.Fatalf("standby epoch %d, primary %d", fromSnap.Epoch(), primary.Epoch())
	}

	// A configuration mismatch is rejected up front.
	other, err := Open(Config{Dim: 3, MaxCard: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.ReplayWALFile(walPath); err == nil {
		t.Fatal("ReplayWALFile accepted a log with a different dimension")
	}

	// A database with its own attached WAL must not bootstrap-replay.
	if err := primary.ReplayWALFile(walPath); err == nil {
		t.Fatal("ReplayWALFile ran on a database with an attached WAL")
	}
	primary.Close()
}
