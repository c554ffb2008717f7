package vsdb

import (
	"fmt"

	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/storage"
)

// Persistence (DESIGN.md §7/§8/§11): a database is saved as a paged
// VXSNAP02 snapshot — the objects in block order, the extended
// centroids the filter ranks, the mutation epoch a write-ahead log is
// replayed against — and reopened by mapping that file (OpenFile).

// LoadOptions tunes OpenFile beyond the persisted configuration.
type LoadOptions struct {
	// Tracker, if non-nil, is installed as the database's I/O tracker; the
	// snapshot's pages are charged to it as they are first touched.
	Tracker *storage.Tracker
	// WALPath, if non-empty, attaches a write-ahead log after the
	// snapshot is opened: records beyond the snapshot's epoch are
	// replayed, and subsequent mutations are logged (see AttachWAL).
	WALPath string
	// WALNoSync skips the fsync per mutation batch.
	WALNoSync bool
	// MaxDelta / CompactRatio set the auto-compaction thresholds
	// (Config.MaxDelta / Config.CompactRatio semantics).
	MaxDelta     int
	CompactRatio float64
}

// SaveFile writes the database to path as a paged snapshot, atomically
// and durably (see atomicfile): Checkpoint truncates the WAL behind it,
// so the snapshot must be on disk before the rename that publishes it.
// The bytes are a function of the logical state alone — configuration,
// ids, sets and epoch — not of delta/tombstones vs compacted or of the
// order the objects arrived in, so SaveFile → OpenFile → SaveFile is a
// fixed point. SaveFile
// captures one consistent view; concurrent mutations do not tear it. A
// database mapped from path may save over it: the mapping keeps the
// replaced file until Close.
func (db *DB) SaveFile(path string) error {
	return db.saveViewFile(db.cur.Load(), path)
}

// saveViewFile writes v's live objects; the writer stores them in block
// order, whatever order v holds them in (its storage order, DB.IDs), and
// recomputes every centroid from its set, which is bit-identical to the
// stored one.
func (db *DB) saveViewFile(v *view, path string) error {
	w, err := snapshot.CreatePaged(path, snapshot.PagedWriterOptions{
		Dim:     db.cfg.Dim,
		MaxCard: db.cfg.MaxCard,
		Omega:   db.omega,
		Seq:     v.seq,
	})
	if err != nil {
		return fmt.Errorf("vsdb: %w", err)
	}
	defer w.Abort() // a no-op once Finish commits
	for _, id := range v.ids {
		if err := w.Append(id, v.get(id)); err != nil {
			return fmt.Errorf("vsdb: %w", err)
		}
	}
	if err := w.Finish(); err != nil {
		return fmt.Errorf("vsdb: %w", err)
	}
	return nil
}
