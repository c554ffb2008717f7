package vsdb

import (
	"fmt"
	"math"

	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/vectorset"
	"github.com/voxset/voxset/internal/wal"
)

// walHandle pairs the log file with its options so Checkpoint can
// re-create it after truncation.
type walHandle struct {
	file *wal.File
	opt  WALOptions
}

// CheckSet is the one vector-set validator — of every write, every log
// record replayed, every query, and of the server's 400s: set must hold 1
// to maxCard vectors, each of dimension dim, with finite coordinates (a
// NaN or ±Inf one is refused with ErrNonFinite). The error names the
// offending vector and component; query only picks its wording ("empty
// query set", "query vector 2 has dim 3, want 6") over the stored-set one
// ("empty vector set", "vector 2 has dim 3, want 6"). Callers prefix what
// the set belongs to.
func CheckSet(set [][]float64, dim, maxCard int, query bool) error {
	whole, card, vec := "vector set", "set", "vector"
	if query {
		whole, card, vec = "query set", "query", "query vector"
	}
	if len(set) == 0 {
		return fmt.Errorf("empty %s", whole)
	}
	if len(set) > maxCard {
		return fmt.Errorf("%s cardinality %d exceeds database MaxCard %d", card, len(set), maxCard)
	}
	for i, v := range set {
		if len(v) != dim {
			return fmt.Errorf("%s %d has dim %d, want %d", vec, i, len(v), dim)
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%s %d component %d is %v: %w", vec, i, j, x, ErrNonFinite)
			}
		}
	}
	return nil
}

// checkSet is CheckSet against the database's configuration, naming id.
func (db *DB) checkSet(id uint64, set [][]float64) error {
	if err := CheckSet(set, db.cfg.Dim, db.cfg.MaxCard, false); err != nil {
		return fmt.Errorf("vsdb: id %d: %w", id, err)
	}
	return nil
}

// validateSet checks a set (checkSet) and returns a flat copy of it,
// detached from caller storage (one buffer the view history then owns
// exclusively).
func (db *DB) validateSet(id uint64, set [][]float64) (vectorset.Flat, error) {
	if err := db.checkSet(id, set); err != nil {
		return vectorset.Flat{}, err
	}
	return vectorset.FlatFromRows(set), nil
}

// logRecords makes recs durable before the mutation becomes visible.
// Must be called with db.mu held.
func (db *DB) logRecords(recs []wal.Record) error {
	if db.log == nil {
		return nil
	}
	if _, err := db.log.file.AppendBatch(recs); err != nil {
		return fmt.Errorf("vsdb: %w", err)
	}
	return nil
}

// Insert stores the vector set under the caller-chosen id. Inserting an
// existing id is an error wrapping ErrExists (use Delete first to
// replace), a set with a NaN or ±Inf coordinate one wrapping
// ErrNonFinite. With a WAL attached the record is durable before any
// query can observe the object.
func (db *DB) Insert(id uint64, set [][]float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.cur.Load()
	if v.live(id) {
		return fmt.Errorf("vsdb: id %d %w", id, ErrExists)
	}
	cp, err := db.validateSet(id, set)
	if err != nil {
		return err
	}
	if err := db.logRecords([]wal.Record{{Op: wal.OpInsert, ID: id, Set: cp.Rows()}}); err != nil {
		return err
	}
	db.publish(v.withInsert(id, db.newDeltaEntry(cp)))
	return nil
}

// Delete removes an object; the id must be live (else the error wraps
// ErrNotFound). A base-resident object leaves a tombstone until the next
// compaction; a delta object disappears immediately.
func (db *DB) Delete(id uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.cur.Load()
	if !v.live(id) {
		return fmt.Errorf("vsdb: id %d %w", id, ErrNotFound)
	}
	if err := db.logRecords([]wal.Record{{Op: wal.OpDelete, ID: id}}); err != nil {
		return err
	}
	db.publish(v.withDelete(id))
	return nil
}

// BulkInsert stores sets[i] under ids[i] for every i, validating and
// deep-copying the sets on a pool of one worker per CPU (VOXSET_WORKERS
// overrides the width). Any invalid entry — duplicate id against
// the database or within the batch, empty set, cardinality or dimension
// mismatch, a non-finite coordinate (ErrNonFinite) — fails the whole call
// before the database is touched; the first error in index order is
// returned. A successful BulkInsert is indistinguishable from sequential
// Inserts in input order (the epoch advances by len(ids)), except that
// the batch is folded straight into a compacted base rather than the
// delta memtable.
func (db *DB) BulkInsert(ids []uint64, sets [][][]float64) error {
	if len(ids) != len(sets) {
		return fmt.Errorf("vsdb: BulkInsert got %d ids for %d sets", len(ids), len(sets))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.cur.Load()
	seen := make(map[uint64]int, len(ids))
	for i, id := range ids {
		if v.live(id) {
			return fmt.Errorf("vsdb: id %d %w", id, ErrExists)
		}
		if j, dup := seen[id]; dup {
			return fmt.Errorf("vsdb: id %d duplicated within batch (indexes %d and %d)", id, j, i)
		}
		seen[id] = i
	}
	cps := make([]vectorset.Flat, len(sets))
	errs := make([]error, len(sets))
	parallel.ForEach(len(sets), parallel.Workers(0, parallel.Auto()), func(i int) {
		cps[i], errs[i] = db.validateSet(ids[i], sets[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if len(ids) == 0 {
		return nil
	}
	recs := make([]wal.Record, len(ids))
	for i, id := range ids {
		recs[i] = wal.Record{Op: wal.OpInsert, ID: id, Set: cps[i].Rows()}
	}
	if err := db.logRecords(recs); err != nil {
		return err
	}
	db.cur.Store(db.rebuildView(v, ids, cps, uint64(len(ids))))
	return nil
}

// Compact folds the delta memtable and the tombstones into a fresh base
// index. The logical state — and therefore the
// epoch — is unchanged: every query answers identically before and
// after, so caches keyed on the epoch stay valid.
func (db *DB) Compact() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.compactLocked()
}

func (db *DB) compactLocked() {
	v := db.cur.Load()
	if v.compacted() {
		return
	}
	db.cur.Store(db.rebuildView(v, nil, nil, 0))
}

// publish installs nv and compacts if it crossed a threshold.
// Must be called with db.mu held.
func (db *DB) publish(nv *view) {
	db.cur.Store(nv)
	db.maybeCompactLocked()
}

func (db *DB) maybeCompactLocked() {
	v := db.cur.Load()
	if v.compacted() {
		return
	}
	if md := db.cfg.maxDelta(); md > 0 && len(v.delta) >= md {
		db.compactLocked()
		return
	}
	if cr := db.cfg.compactRatio(); cr > 0 && v.tombRatio() >= cr {
		db.compactLocked()
	}
}

// rebuildView builds a compacted view over v's live objects plus the
// additional (addIDs[i], addSets[i]) pairs, advancing the epoch by
// seqDelta. Live objects keep the extended centroids the view already
// holds (the delta entries', the retiring base's by id); only the added
// sets' are computed. The new base is built once, in place over the
// collected sets (newHeapBase). Must be called with db.mu held.
func (db *DB) rebuildView(v *view, addIDs []uint64, addSets []vectorset.Flat, seqDelta uint64) *view {
	n := len(v.ids) + len(addIDs)
	ids := make([]uint64, 0, n)
	sets := make([]vectorset.Flat, 0, n)
	for _, id := range v.ids {
		ids = append(ids, id)
		sets = append(sets, v.get(id))
	}
	ids = append(ids, addIDs...)
	sets = append(sets, addSets...)
	// The retiring base's evaluations move into refExtra, sigExtra and
	// matchExtra so the DB-wide counters survive the rebuild.
	db.refExtra.Add(v.base.Refinements())
	db.sigExtra.Add(v.base.SignaturePruned())
	db.matchExtra.Add(v.base.Matchings())
	if !v.compacted() {
		db.compactions.Add(1)
	}
	base, baseSets := db.newHeapBase(ids, sets, func(i int) []float64 {
		if i < len(v.ids) {
			return v.centroid(ids[i])
		}
		return nil // an added set: newHeapBase computes it
	})
	return &view{seq: v.seq + seqDelta, base: base, baseSets: baseSets, ids: ids}
}

// withInsert derives the view after inserting id. The ids slice is
// extended in place (append): older views never read past their own
// length, so the shared prefix is safe.
func (v *view) withInsert(id uint64, e deltaEntry) *view {
	delta := make(map[uint64]deltaEntry, len(v.delta)+1)
	for k, s := range v.delta {
		delta[k] = s
	}
	delta[id] = e
	nv := &view{
		seq:      v.seq + 1,
		base:     v.base,
		baseSets: v.baseSets,
		tomb:     v.tomb,
		delta:    delta,
		// Plain appends share the parent's backing array: history is
		// linear (single writer) and an older view never indexes past
		// its own length, so the shared prefix is immutable to it.
		deltaIDs: append(v.deltaIDs, id),
		ids:      append(v.ids, id),
	}
	return nv
}

// withDelete derives the view after deleting a live id.
func (v *view) withDelete(id uint64) *view {
	nv := &view{
		seq:      v.seq + 1,
		base:     v.base,
		baseSets: v.baseSets,
		tomb:     v.tomb,
		delta:    v.delta,
		deltaIDs: v.deltaIDs,
		ids:      without(v.ids, id),
	}
	if _, inDelta := v.delta[id]; inDelta {
		delta := make(map[uint64]deltaEntry, len(v.delta))
		for k, s := range v.delta {
			if k != id {
				delta[k] = s
			}
		}
		nv.delta = delta
		nv.deltaIDs = without(v.deltaIDs, id)
	} else {
		tomb := make(map[uint64]struct{}, len(v.tomb)+1)
		for k := range v.tomb {
			tomb[k] = struct{}{}
		}
		tomb[id] = struct{}{}
		nv.tomb = tomb
	}
	return nv
}

// without returns a fresh copy of s with the first occurrence of id
// removed.
func without(s []uint64, id uint64) []uint64 {
	out := make([]uint64, 0, len(s))
	for _, x := range s {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Write-ahead log (DESIGN.md §8)

// WALOptions tune an attached write-ahead log.
type WALOptions struct {
	// NoSync skips the fsync per mutation batch (wal.FileOptions.NoSync).
	NoSync bool
}

// AttachWAL opens (or creates) the write-ahead log at path and binds it
// to the database: records beyond the database's current epoch are
// replayed first, and from then on every mutation is appended — and
// synced, unless opt.NoSync — before it becomes visible to queries.
//
// The log must belong to this database: its configuration header has to
// match, and its base sequence number must not lie beyond the current
// epoch (that would mean mutations between snapshot and log are lost).
// A log whose records all precede the current epoch is stale — its
// records are already inside the snapshot the database was loaded from —
// and is truncated against the current epoch.
func (db *DB) AttachWAL(path string, opt WALOptions) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.log != nil {
		return fmt.Errorf("vsdb: a WAL is already attached (%s)", db.log.file.Path())
	}
	v := db.cur.Load()
	file, recs, err := wal.OpenFile(path, wal.Config{
		Dim:     db.cfg.Dim,
		MaxCard: db.cfg.MaxCard,
		BaseSeq: v.seq,
		Omega:   db.omega,
	}, wal.FileOptions{NoSync: opt.NoSync})
	if err != nil {
		return fmt.Errorf("vsdb: %w", err)
	}
	if base := file.Config().BaseSeq; base > v.seq {
		file.Close()
		return fmt.Errorf("vsdb: WAL %s starts at sequence %d but the database is at epoch %d: mutations are missing", path, base, v.seq)
	}
	nv, err := db.replayLocked(v, recs)
	if err != nil {
		file.Close()
		return fmt.Errorf("vsdb: replaying WAL %s: %w", path, err)
	}
	if nv != v {
		db.cur.Store(nv)
	}
	if file.Seq() < nv.seq {
		// Every log record is already inside the loaded snapshot:
		// truncate so future appends continue from the current epoch.
		if err := file.Reset(nv.seq); err != nil {
			file.Close()
			return fmt.Errorf("vsdb: %w", err)
		}
	}
	db.log = &walHandle{file: file, opt: opt}
	db.maybeCompactLocked()
	return nil
}

// replayLocked applies the WAL records with sequence numbers beyond
// v.seq and returns the resulting view (v itself when nothing applies).
// Replay is strict: a record that conflicts with the state it replays
// onto (inserting a live id, deleting a dead one) means snapshot and log
// do not belong together, and a set Insert would refuse (CheckSet: a
// non-finite coordinate included) is refused here too, CRC-valid or not.
// On error nothing is applied.
func (db *DB) replayLocked(v *view, recs []wal.Record) (*view, error) {
	applied := 0
	for _, rec := range recs {
		if rec.Seq > v.seq {
			applied++
		}
	}
	if applied == 0 {
		return v, nil
	}
	// One mutable scratch state, O(total) instead of a view copy per
	// record; the result is published as a single new view.
	delta := make(map[uint64]deltaEntry, len(v.delta)+applied)
	for k, s := range v.delta {
		delta[k] = s
	}
	deltaIDs := append([]uint64(nil), v.deltaIDs...)
	tomb := make(map[uint64]struct{}, len(v.tomb))
	for k := range v.tomb {
		tomb[k] = struct{}{}
	}
	ids := append([]uint64(nil), v.ids...)
	seq := v.seq
	live := func(id uint64) bool {
		if _, ok := delta[id]; ok {
			return true
		}
		if _, dead := tomb[id]; dead {
			return false
		}
		return v.baseSets.baseHas(id)
	}
	for _, rec := range recs {
		if rec.Seq <= v.seq {
			continue
		}
		switch rec.Op {
		case wal.OpInsert:
			if live(rec.ID) {
				return nil, fmt.Errorf("record %d inserts id %d which is already live", rec.Seq, rec.ID)
			}
			if err := db.checkSet(rec.ID, rec.Set); err != nil {
				return nil, fmt.Errorf("record %d: %w", rec.Seq, err)
			}
			delta[rec.ID] = db.newDeltaEntry(vectorset.FlatFromRows(rec.Set))
			deltaIDs = append(deltaIDs, rec.ID)
			ids = append(ids, rec.ID)
		case wal.OpDelete:
			if !live(rec.ID) {
				return nil, fmt.Errorf("record %d deletes id %d which is not live", rec.Seq, rec.ID)
			}
			if _, inDelta := delta[rec.ID]; inDelta {
				delete(delta, rec.ID)
				deltaIDs = without(deltaIDs, rec.ID)
			} else {
				tomb[rec.ID] = struct{}{}
			}
			ids = without(ids, rec.ID)
		default:
			return nil, fmt.Errorf("record %d has unknown op %v", rec.Seq, rec.Op)
		}
		seq = rec.Seq
	}
	return &view{
		seq:      seq,
		base:     v.base,
		baseSets: v.baseSets,
		tomb:     tomb,
		delta:    delta,
		deltaIDs: deltaIDs,
		ids:      ids,
	}, nil
}

// WALRecords returns the number of records currently in the attached
// log (0 when none is attached).
func (db *DB) WALRecords() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.log == nil {
		return 0
	}
	return db.log.file.Records()
}

// Checkpoint writes a snapshot of the current state to path (atomically,
// via a sibling temporary file) and truncates the attached WAL against
// it: the snapshot carries the epoch, so a crash between the two steps
// only means the next open replays records the snapshot already holds —
// and skips them by sequence number.
func (db *DB) Checkpoint(path string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.cur.Load()
	if err := db.saveViewFile(v, path); err != nil {
		return err
	}
	if db.log != nil {
		if err := db.log.file.Reset(v.seq); err != nil {
			return fmt.Errorf("vsdb: %w", err)
		}
	}
	return nil
}

// Close detaches and closes the WAL (syncing it first, unless NoSync)
// and unmaps the backing snapshot of an OpenFile database. A
// heap-resident database remains queryable after Close (further
// mutations are simply not logged); an mmap-backed one must not be
// queried afterwards — its views alias the released mapping.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var err error
	if db.log != nil {
		err = db.log.file.Close()
		db.log = nil
	}
	if db.reader != nil {
		if cerr := db.reader.Close(); err == nil {
			err = cerr
		}
		db.reader = nil
	}
	return err
}
