package vsdb

// Replication support (DESIGN.md §13): a follower runs a standby
// database with no WAL of its own — the primary's log is the one durable
// copy — and advances by strictly replaying the records the primary
// ships. Bootstrap replays the shard WAL in place (ReplayWALFile);
// steady state applies one shipped record at a time (ApplyRecord).

import (
	"errors"
	"fmt"
	"os"

	"github.com/voxset/voxset/internal/wal"
)

// ApplyRecord applies one replicated mutation to a standby database.
// Replay is strict: the record must carry the next sequence number
// (Epoch()+1) and must not conflict with the state it lands on —
// anything else means the replica stream and this database have
// diverged, and the error is the follower's cue to drop out rather than
// serve wrong answers.
func (db *DB) ApplyRecord(rec wal.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.cur.Load()
	if rec.Seq != v.seq+1 {
		return fmt.Errorf("vsdb: replicated record %d does not extend epoch %d", rec.Seq, v.seq)
	}
	nv, err := db.replayLocked(v, []wal.Record{rec})
	if err != nil {
		return fmt.Errorf("vsdb: applying replicated record: %w", err)
	}
	db.cur.Store(nv)
	db.maybeCompactLocked()
	return nil
}

// ReplayWALFile replays the records of the log at path that lie beyond
// the database's current epoch, without attaching the log — the follower
// bootstrap path: the standby adopts the shard's durable history
// (snapshot, then this call for the WAL suffix) and from then on tails
// the primary's shipped records.
//
// A missing log is an empty history (no-op). The log must belong to this
// database: its configuration must match, and its base sequence must not
// lie beyond the current epoch (a gap would mean mutations between
// snapshot and log are unrecoverable). A torn tail is left where it is —
// only fully framed records are replayed; the primary's own recovery
// truncates the tear.
func (db *DB) ReplayWALFile(path string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.log != nil {
		return fmt.Errorf("vsdb: ReplayWALFile on a database with an attached WAL (%s)", db.log.file.Path())
	}
	v := db.cur.Load()
	cfg, recs, err := wal.ReadSuffix(path, v.seq)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("vsdb: %w", err)
	}
	if !cfg.Matches(wal.Config{Dim: db.cfg.Dim, MaxCard: db.cfg.MaxCard, Omega: db.omega}) {
		return fmt.Errorf("vsdb: WAL %s header (dim=%d maxCard=%d) does not match database (dim=%d maxCard=%d) or ω differs",
			path, cfg.Dim, cfg.MaxCard, db.cfg.Dim, db.cfg.MaxCard)
	}
	if cfg.BaseSeq > v.seq {
		return fmt.Errorf("vsdb: WAL %s starts at sequence %d but the database is at epoch %d: mutations are missing", path, cfg.BaseSeq, v.seq)
	}
	nv, err := db.replayLocked(v, recs)
	if err != nil {
		return fmt.Errorf("vsdb: replaying WAL %s: %w", path, err)
	}
	if nv != v {
		db.cur.Store(nv)
		db.maybeCompactLocked()
	}
	return nil
}
