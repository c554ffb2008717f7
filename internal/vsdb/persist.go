package vsdb

import (
	"fmt"
	"io"
	"os"

	"github.com/voxset/voxset/internal/atomicfile"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// Persistence (DESIGN.md §7/§8): the versioned, checksummed binary
// format of internal/snapshot, carrying the objects in insertion order,
// the extended centroids of the filter index so Load can lay out the
// column it ranks without re-deriving them, and the mutation epoch so a
// write-ahead log can be replayed against the snapshot.

// Save writes the database and its filter centroids as a version-1
// snapshot stream. The encoding is deterministic: two databases with
// identical logical contents (same configuration, ids, sets, insertion
// order and epoch) produce byte-identical snapshots regardless of their
// physical state (delta/tombstones vs compacted), so a Save → Load →
// Save round trip is a fixed point. Save captures one consistent view;
// concurrent mutations do not tear it.
func (db *DB) Save(w io.Writer) error {
	return db.saveView(db.cur.Load(), w)
}

func (db *DB) saveView(v *view, w io.Writer) error {
	s := snapshot.DB{
		Dim:       db.cfg.Dim,
		MaxCard:   db.cfg.MaxCard,
		Omega:     db.omega,
		Seq:       v.seq,
		IDs:       v.ids,
		Sets:      make([][][]float64, len(v.ids)),
		Centroids: db.viewCentroids(v),
		Sketches:  db.viewSketches(v),
	}
	for i, id := range v.ids {
		s.Sets[i] = v.get(id).Rows()
	}
	return snapshot.Encode(w, &s)
}

// viewCentroids returns the extended centroids of the live objects in
// insertion order. A compacted view's base stores them aligned with ids;
// otherwise each comes from where the view keeps it (the delta entry, or
// the base by id).
func (db *DB) viewCentroids(v *view) [][]float64 {
	out := make([][]float64, len(v.ids))
	compacted := v.compacted()
	for i, id := range v.ids {
		if compacted {
			out[i] = v.base.Centroid(i)
		} else {
			out[i] = v.centroid(id)
		}
	}
	return out
}

// LoadOptions tunes Load beyond the persisted configuration.
type LoadOptions struct {
	// Tracker, if non-nil, is installed as the database's I/O tracker and
	// charged for reading the snapshot itself (one sequential scan of its
	// pages under the §5.4 cost model).
	Tracker *storage.Tracker
	// Workers is the refinement worker count for the loaded database (same
	// semantics as Config.Workers).
	Workers int
	// WALPath, if non-empty, attaches a write-ahead log after the
	// snapshot is loaded: records beyond the snapshot's epoch are
	// replayed, and subsequent mutations are logged (see AttachWAL).
	WALPath string
	// WALNoSync skips the fsync per mutation batch.
	WALNoSync bool
	// MaxDelta / CompactRatio set the auto-compaction thresholds
	// (Config.MaxDelta / Config.CompactRatio semantics).
	MaxDelta     int
	CompactRatio float64
	// Approx enables the approximate candidate tier on the loaded
	// database (Config.Approx semantics). When the snapshot carries a
	// sketch table under matching parameters it is adopted directly;
	// otherwise the table is rebuilt lazily on the first approximate
	// query.
	Approx *ApproxOptions
}

// Load reads a snapshot written by Save. Corrupt input — a flipped byte,
// truncation, or garbage — is reported as an error wrapping
// snapshot.ErrCorrupt; it never panics.
func Load(r io.Reader) (*DB, error) { return LoadWith(r, LoadOptions{}) }

// LoadWith is Load with serving options. The filter index ranks the
// persisted centroids as they are, so opening a snapshot does no
// matching-distance work and no centroid recomputation; the loaded view's
// epoch is the snapshot's.
func LoadWith(r io.Reader, opt LoadOptions) (*DB, error) {
	dec, err := snapshot.NewDecoder(r, snapshot.DecodeOptions{Tracker: opt.Tracker})
	if err != nil {
		return nil, fmt.Errorf("vsdb: %w", err)
	}
	hdr := dec.Header()
	cfg := Config{
		Dim:          hdr.Dim,
		MaxCard:      hdr.MaxCard,
		Omega:        hdr.Omega,
		Tracker:      opt.Tracker,
		Workers:      opt.Workers,
		MaxDelta:     opt.MaxDelta,
		CompactRatio: opt.CompactRatio,
		Approx:       opt.Approx,
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	db := &DB{cfg: cfg, omega: hdr.Omega}
	seen := map[uint64]struct{}{}
	var (
		ids  []uint64
		sets []vectorset.Flat
	)
	for {
		// Each object decodes into one flat buffer (no per-vector
		// allocation) and is stored in that layout directly.
		id, set, err := dec.NextFlat()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("vsdb: %w", err)
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("vsdb: snapshot repeats id %d", id)
		}
		if err := db.checkFlat(id, set); err != nil {
			return nil, err
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
		sets = append(sets, set)
	}
	cents := dec.Centroids()
	base, baseSets := db.newHeapBase(ids, sets, func(i int) []float64 { return cents[i] })
	if blk := dec.Sketches(); blk != nil && cfg.Approx != nil && blk.Params == cfg.Approx.params() {
		// Adoption failure (a count mismatch cannot happen here; belt and
		// suspenders) just means the lazy rebuild runs instead.
		_ = base.AttachSketches(blk)
	}
	db.cur.Store(&view{
		seq:      dec.Seq(),
		base:     base,
		baseSets: baseSets,
		ids:      ids,
	})
	if opt.WALPath != "" {
		if err := db.AttachWAL(opt.WALPath, WALOptions{NoSync: opt.WALNoSync}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// SaveFile writes the snapshot to path, atomically and durably (see
// atomicfile): Checkpoint truncates the WAL behind it, so the snapshot
// must be on disk before the rename that publishes it.
func (db *DB) SaveFile(path string) error {
	return db.saveViewFile(db.cur.Load(), path)
}

func (db *DB) saveViewFile(v *view, path string) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error { return db.saveView(v, w) })
}

// LoadFile reads a snapshot file written by SaveFile.
func LoadFile(path string, opt LoadOptions) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWith(f, opt)
}
