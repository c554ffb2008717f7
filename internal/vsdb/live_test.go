package vsdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/wal"
)

// Tests for the durability half of the live-update engine: WAL-backed
// reopen, checkpoint truncation, recovery from arbitrary-length WAL
// prefixes (every byte offset), and snapshot+WAL-suffix fingerprint
// equality with the live database.

func liveConfig(dir string) Config {
	return Config{
		Dim:       3,
		MaxCard:   3,
		Omega:     []float64{1, 0.5, -0.25},
		MaxDelta:  64,
		WALPath:   filepath.Join(dir, "live.wal"),
		WALNoSync: true,
	}
}

// liveMut is one recorded mutation, replayable against a model map.
type liveMut struct {
	del bool
	id  uint64
	set [][]float64
}

// genLiveMuts produces n valid mutations (inserts, deletes, occasional
// delete+reinsert of the same id) from the seed.
func genLiveMuts(seed int64, n int) []liveMut {
	rng := rand.New(rand.NewSource(seed))
	live := []uint64{}
	next := uint64(0)
	muts := make([]liveMut, 0, n)
	for len(muts) < n {
		if rng.Intn(3) == 0 && len(live) > 0 {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			muts = append(muts, liveMut{del: true, id: id})
			continue
		}
		// Reinsert a deleted id a third of the time.
		id := next + 1
		for _, m := range muts {
			if m.del && m.id < id && rng.Intn(3) == 0 {
				alive := false
				for _, l := range live {
					if l == m.id {
						alive = true
						break
					}
				}
				if !alive {
					id = m.id
					break
				}
			}
		}
		if id == next+1 {
			next++
		}
		set := make([][]float64, 1+rng.Intn(3))
		for i := range set {
			set[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		live = append(live, id)
		muts = append(muts, liveMut{id: id, set: set})
	}
	return muts
}

// applyMuts plays muts[:n] into a model map of live sets.
func applyMuts(muts []liveMut, n int) map[uint64][][]float64 {
	m := map[uint64][][]float64{}
	for _, mu := range muts[:n] {
		if mu.del {
			delete(m, mu.id)
		} else {
			m[mu.id] = mu.set
		}
	}
	return m
}

func mutate(t *testing.T, db *DB, mu liveMut) {
	t.Helper()
	if mu.del {
		if err := db.Delete(mu.id); err != nil {
			t.Fatalf("delete(%d): %v", mu.id, err)
		}
	} else if err := db.Insert(mu.id, mu.set); err != nil {
		t.Fatalf("insert(%d): %v", mu.id, err)
	}
}

// checkState verifies the database holds exactly the model's live sets.
func checkState(t *testing.T, db *DB, model map[uint64][][]float64, ctx string) {
	t.Helper()
	if db.Len() != len(model) {
		t.Fatalf("%s: Len() = %d, want %d", ctx, db.Len(), len(model))
	}
	for id, set := range model {
		got := db.Get(id)
		if got == nil {
			t.Fatalf("%s: id %d missing", ctx, id)
		}
		if fmt.Sprint(got) != fmt.Sprint(set) {
			t.Fatalf("%s: id %d = %v, want %v", ctx, id, got, set)
		}
	}
}

// TestWALReopenRestoresState: every mutation is durable before it is
// visible, so Close + Open on the same WAL reproduces the exact state
// and epoch — no snapshot needed.
func TestWALReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(dir)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	muts := genLiveMuts(7, 150)
	for _, mu := range muts {
		mutate(t, db, mu)
	}
	epoch := db.Epoch()
	if epoch != uint64(len(muts)) {
		t.Fatalf("epoch %d after %d mutations", epoch, len(muts))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Epoch() != epoch {
		t.Fatalf("reopened epoch %d, want %d", re.Epoch(), epoch)
	}
	checkState(t, re, applyMuts(muts, len(muts)), "reopen")
}

// TestCheckpointTruncatesWAL: Checkpoint persists a snapshot and resets
// the log; later mutations land in the short log, and snapshot+suffix
// replay reproduces the live state.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(dir)
	snap := filepath.Join(dir, "ckpt.vsnap")
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	muts := genLiveMuts(11, 120)
	for _, mu := range muts[:80] {
		mutate(t, db, mu)
	}
	if n := db.WALRecords(); n != 80 {
		t.Fatalf("WALRecords = %d before checkpoint, want 80", n)
	}
	if err := db.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if n := db.WALRecords(); n != 0 {
		t.Fatalf("WALRecords = %d after checkpoint, want 0", n)
	}
	if db.Epoch() != 80 {
		t.Fatalf("checkpoint changed the epoch to %d", db.Epoch())
	}
	for _, mu := range muts[80:] {
		mutate(t, db, mu)
	}
	if n := db.WALRecords(); n != 40 {
		t.Fatalf("WALRecords = %d after suffix, want 40", n)
	}

	re, err := OpenFile(snap, LoadOptions{WALPath: cfg.WALPath, WALNoSync: true, MaxDelta: cfg.MaxDelta})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != db.Epoch() {
		t.Fatalf("snapshot+suffix epoch %d, want %d", re.Epoch(), db.Epoch())
	}
	checkState(t, re, applyMuts(muts, len(muts)), "snapshot+suffix")
}

// strictReplay decodes a whole in-memory log through wal.Reader: any
// damage, a torn tail included, is an error wrapping wal.ErrCorrupt.
func strictReplay(data []byte) ([]wal.Record, error) {
	rd, err := wal.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var recs []wal.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// TestWALPrefixRecovery is the crash matrix: for EVERY byte offset of a
// real WAL, the prefix either strictly replays (when the cut lands on a
// frame boundary) or fails with ErrCorrupt; and opening a database on
// that prefix always recovers exactly the longest fully-framed prefix
// of the mutation history — never a panic, never a silently shortened
// record, never a half-applied mutation.
func TestWALPrefixRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(dir)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	muts := genLiveMuts(3, 16)
	for _, mu := range muts {
		mutate(t, db, mu)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}

	step := 1
	if testing.Short() {
		step = 7
	}
	for cut := 0; cut <= len(data); cut += step {
		prefix := data[:cut]

		// Strict replay accepts only fully-framed logs (a cut exactly on a
		// frame boundary is indistinguishable from a complete log); any
		// other cut must wrap ErrCorrupt.
		recs, strictErr := strictReplay(prefix)
		if strictErr != nil && !errors.Is(strictErr, wal.ErrCorrupt) {
			t.Fatalf("cut %d: strict replay error %v does not wrap ErrCorrupt", cut, strictErr)
		}

		// Recovery: the DB opens on the prefix and lands on a fully-framed
		// prefix state.
		sub := t.TempDir()
		pcfg := liveConfig(sub)
		if err := os.WriteFile(pcfg.WALPath, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(pcfg)
		if err != nil {
			t.Fatalf("cut %d: recovery open failed: %v", cut, err)
		}
		n := int(re.Epoch())
		if n > len(muts) {
			t.Fatalf("cut %d: recovered %d records from a %d-record log", cut, n, len(muts))
		}
		if strictErr == nil && cut > 0 && n != len(recs) {
			t.Fatalf("cut %d: clean prefix has %d records but recovery applied %d", cut, len(recs), n)
		}
		checkState(t, re, applyMuts(muts, n), fmt.Sprintf("cut %d (recovered %d/%d records)", cut, n, len(muts)))

		// The recovered log must be appendable: one more insert, then a
		// clean reopen sees it.
		if err := re.Insert(999999, [][]float64{{1, 2, 3}}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re2, err := Open(pcfg)
		if err != nil {
			t.Fatalf("cut %d: reopen after recovery append: %v", cut, err)
		}
		if re2.Get(999999) == nil {
			t.Fatalf("cut %d: post-recovery append lost on reopen", cut)
		}
		re2.Close()
	}
}

// TestFingerprintLiveVsReplayed: the snapshot of a database
// reconstructed from checkpoint + WAL suffix is byte-identical to the
// snapshot of the live database it mirrors, including after
// delete+reinsert and compaction.
func TestFingerprintLiveVsReplayed(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(dir)
	snap := filepath.Join(dir, "mid.vsnap")
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	muts := genLiveMuts(17, 200)
	for i, mu := range muts {
		mutate(t, db, mu)
		if i == 99 {
			if err := db.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Exercise delete+reinsert+compact explicitly on top of the trace.
	if err := db.Insert(777777, [][]float64{{1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(777777); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(777777, [][]float64{{2, 2, 2}, {3, 3, 3}}); err != nil {
		t.Fatal(err)
	}
	db.Compact()

	live := fingerprint(t, db)

	re, err := OpenFile(snap, LoadOptions{WALPath: cfg.WALPath, WALNoSync: true, MaxDelta: cfg.MaxDelta})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.Compact() // same representation as the live side
	if replayed := fingerprint(t, re); !bytes.Equal(live, replayed) {
		t.Fatalf("snapshot fingerprints diverge: live %d bytes, replayed %d bytes", len(live), len(replayed))
	}
	if got := re.Get(777777); fmt.Sprint(got) != fmt.Sprint([][]float64{{2, 2, 2}, {3, 3, 3}}) {
		t.Fatalf("reinserted object after replay = %v", got)
	}
}

// TestUncompactedSnapshotFingerprint: Save on an UNcompacted live view
// (delta objects + tombstones outstanding) must equal Save on the
// snapshot+suffix reconstruction without forcing compaction on either
// side — the snapshot layer serializes logical state, not
// representation.
func TestUncompactedSnapshotFingerprint(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(dir)
	cfg.MaxDelta = -1 // disable auto-compaction entirely
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Bulk inserts fold straight into the filter base, so the deletes
	// below leave tombstones there; the per-item inserts stay in the
	// delta memtable (auto-compaction is off).
	rng := rand.New(rand.NewSource(23))
	ids := make([]uint64, 30)
	sets := make([][][]float64, 30)
	for i := range ids {
		ids[i] = uint64(i + 1)
		sets[i] = [][]float64{{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}}
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(101); id <= 110; id++ {
		if err := db.Insert(id, [][]float64{{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}}); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().DeltaLen == 0 || db.Stats().TombstoneRatio == 0 {
		t.Fatalf("precondition: want outstanding delta and tombstones, got %d / %v",
			db.Stats().DeltaLen, db.Stats().TombstoneRatio)
	}
	live := fingerprint(t, db)
	re, err := Open(Config{
		Dim: cfg.Dim, MaxCard: cfg.MaxCard, Omega: cfg.Omega,
		MaxDelta: -1, WALPath: cfg.WALPath, WALNoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(live, fingerprint(t, re)) {
		t.Fatal("uncompacted live snapshot differs from WAL-replayed snapshot")
	}
}

// TestAttachWALRejectsGap: a WAL whose BaseSeq is ahead of the database
// epoch implies lost mutations; attaching it must fail loudly instead
// of silently dropping history.
func TestAttachWALRejectsGap(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(dir)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mu := range genLiveMuts(29, 40) {
		mutate(t, db, mu)
	}
	snap := filepath.Join(dir, "gap.vsnap")
	if err := db.Checkpoint(snap); err != nil { // WAL BaseSeq is now 40
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh empty database (epoch 0) cannot adopt a log starting at 40.
	_, err = Open(cfg)
	if err == nil {
		t.Fatal("open with a gapped WAL succeeded")
	}
	// The checkpoint snapshot CAN adopt it.
	re, err := OpenFile(snap, LoadOptions{WALPath: cfg.WALPath, WALNoSync: true})
	if err != nil {
		t.Fatalf("snapshot + matching WAL: %v", err)
	}
	re.Close()
}
