// Package vsdb is the "more general system for managing vector-set-
// represented objects" the paper's conclusion announces: a standalone
// database for objects represented as sets of d-dimensional feature
// vectors under the minimal matching distance, independent of the CAD
// pipeline. It supports insertion and deletion, exact k-nn and ε-range
// queries through the extended-centroid filter (when the configured
// ground distance and weight function satisfy the Lemma 2 conditions) or
// an exhaustive scan otherwise, and snapshot persistence.
//
// # Live updates (DESIGN.md §8)
//
// The database is safe for concurrent use: any number of goroutines may
// query while others mutate. Reads are lock-free — every query runs
// against an immutable view published through an atomic pointer
// (RCU-style), so a KNN in flight keeps its consistent state while
// writers install the next view. Mutators are serialized by an internal
// mutex. A view is three layers:
//
//   - base: the bulk-loaded filter/X-tree index over objects as of the
//     last compaction;
//   - delta: a small exact-scanned memtable of objects inserted since
//     (scanning ≤ MaxDelta sets is cheaper than any index walk, and
//     every delta hit is an exact distance — filter-vs-scan parity
//     holds at every epoch);
//   - tomb: tombstones for deleted base-resident objects, subtracted
//     from base query results.
//
// Compaction folds delta and tomb back into a fresh STR-bulk-loaded
// base; it triggers automatically on the MaxDelta / CompactRatio
// thresholds or explicitly via Compact. Every view carries the mutation
// sequence number (Epoch) used for cache invalidation, snapshot
// alignment, and write-ahead-log replay.
//
// With a WAL attached (Config.WALPath / AttachWAL), every mutation is
// durable before it is visible, and reopening replays the log suffix
// onto the latest snapshot; Checkpoint writes a fresh snapshot and
// truncates the log against it.
//
// The paper names image and biomolecule retrieval as target applications;
// examples/imagesearch demonstrates the former with color-region
// signatures.
package vsdb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/filter"
	"github.com/voxset/voxset/internal/index/sketch"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// Default live-update thresholds (DESIGN.md §8).
const (
	// DefaultMaxDelta is the delta-memtable size that triggers a
	// compaction: beyond it the exact scan of unindexed objects starts
	// to rival the filter walk it bypasses.
	DefaultMaxDelta = 256
	// DefaultCompactRatio is the tombstone ratio (deleted base objects
	// over live+deleted) that triggers a compaction.
	DefaultCompactRatio = 0.5
)

// Mutation errors, wrapped with the offending id; test with errors.Is.
var (
	// ErrExists reports an Insert of an id that is already live.
	ErrExists = errors.New("already present")
	// ErrNotFound reports a Delete of an id that is not live.
	ErrNotFound = errors.New("not found")
)

// Config parameterizes a vector set database.
type Config struct {
	// Dim is the vector dimensionality (> 0).
	Dim int
	// MaxCard is the maximum set cardinality k (> 0).
	MaxCard int
	// Omega is the centroid padding vector and the reference point of the
	// default weight function w_ω(x) = ‖x−ω‖₂ (zero vector if nil).
	Omega []float64
	// Tracker, if non-nil, is charged for simulated I/O.
	Tracker *storage.Tracker
	// Workers is the number of refinement workers per query, passed to the
	// filter pipeline. 0 consults the VOXSET_WORKERS environment variable
	// and defaults to 1 (sequential). Query results are identical at any
	// setting.
	Workers int

	// WALPath, if non-empty, attaches a write-ahead log at that path on
	// Open: existing records are replayed, and every subsequent mutation
	// is durable before it is visible (see AttachWAL).
	WALPath string
	// WALNoSync skips the fsync per mutation batch (see wal.FileOptions).
	WALNoSync bool
	// MaxDelta is the delta-memtable size that triggers auto-compaction.
	// 0 means DefaultMaxDelta; negative disables the threshold.
	MaxDelta int
	// CompactRatio is the tombstone ratio that triggers auto-compaction.
	// 0 means DefaultCompactRatio; negative disables the threshold.
	CompactRatio float64

	// Approx, if non-nil, configures the approximate candidate tier
	// (DESIGN.md §12) that queries with Query.Approx set answer through.
	// Exact queries are unaffected.
	Approx *ApproxOptions
}

func (c Config) validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("vsdb: Dim must be positive, got %d", c.Dim)
	}
	if c.MaxCard <= 0 {
		return fmt.Errorf("vsdb: MaxCard must be positive, got %d", c.MaxCard)
	}
	if c.Omega != nil && len(c.Omega) != c.Dim {
		return fmt.Errorf("vsdb: Omega has dim %d, want %d", len(c.Omega), c.Dim)
	}
	if c.Approx != nil {
		if err := c.Approx.params().Validate(); err != nil {
			return fmt.Errorf("vsdb: %w", err)
		}
	}
	return nil
}

func (c Config) maxDelta() int {
	if c.MaxDelta == 0 {
		return DefaultMaxDelta
	}
	return c.MaxDelta
}

func (c Config) compactRatio() float64 {
	if c.CompactRatio == 0 {
		return DefaultCompactRatio
	}
	return c.CompactRatio
}

// view is one immutable database state. Queries load the current view
// once and run entirely against it; mutators derive the next view and
// publish it atomically. Fields are never written after publication
// (withInsert appends to ids, which is safe: older views never index
// past their own length).
type view struct {
	// seq is the mutation sequence number — the database epoch. It
	// counts Insert/Delete records, never compactions (a compaction
	// changes the representation, not the logical state).
	seq uint64
	// base is the filter/X-tree index as of the last compaction, with
	// baseSets resolving its sets by id (including tombstoned ones).
	// Heap-resident databases use a mapStore of contiguous
	// vectorset.Flat buffers (DESIGN.md §10), owned exclusively by the
	// view history and never written after publication; mmap-backed
	// databases (OpenFile on a paged snapshot) use a snapStore whose
	// sets alias the mapping (DESIGN.md §11).
	base     *filter.Index
	baseSets baseStore
	// tomb marks base-resident ids that have been deleted.
	tomb map[uint64]struct{}
	// delta holds objects inserted since the last compaction, exact-
	// scanned by every query; deltaIDs is its insertion order.
	delta    map[uint64]vectorset.Flat
	deltaIDs []uint64
	// ids is the live object ids in insertion order.
	ids []uint64
}

// live reports whether id is visible in this view.
func (v *view) live(id uint64) bool {
	if _, ok := v.delta[id]; ok {
		return true
	}
	if _, dead := v.tomb[id]; dead {
		return false
	}
	return v.baseSets.baseHas(id)
}

// get returns the flat set of a live id (the zero Flat otherwise).
func (v *view) get(id uint64) vectorset.Flat {
	if set, ok := v.delta[id]; ok {
		return set
	}
	if _, dead := v.tomb[id]; dead {
		return vectorset.Flat{}
	}
	set, _ := v.baseSets.baseGet(id)
	return set
}

// compacted reports whether the view is exactly its base (no delta, no
// tombstones) — the state in which ids aligns with base insertion order.
func (v *view) compacted() bool { return len(v.delta) == 0 && len(v.tomb) == 0 }

// tombRatio is the fraction of base-resident objects that are deleted.
func (v *view) tombRatio() float64 {
	if len(v.tomb) == 0 {
		return 0
	}
	return float64(len(v.tomb)) / float64(len(v.ids)+len(v.tomb))
}

// DB is a vector set database, safe for concurrent queries and
// mutations (queries are lock-free; mutators serialize internally).
type DB struct {
	cfg   Config
	omega []float64

	mu  sync.Mutex // serializes mutators, compaction, checkpointing
	cur atomic.Pointer[view]
	log *walHandle
	// reader is the mapped snapshot backing an OpenFile database (nil
	// for heap-resident ones). Views alias it, so it lives until Close.
	reader *snapshot.PagedReader

	// refExtra accumulates exact-distance evaluations that the current
	// base's counter does not cover: delta scans, plus the harvested
	// counters of bases retired by compaction. skExtra does the same for
	// the sketch-candidate counter of approximate queries.
	refExtra    atomic.Int64
	skExtra     atomic.Int64
	compactions atomic.Int64
}

// Open creates an empty database (attaching the WAL at Config.WALPath,
// if set, and replaying any records it holds).
func Open(cfg Config) (*DB, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	omega := cfg.Omega
	if omega == nil {
		omega = make([]float64, cfg.Dim)
	}
	db := &DB{cfg: cfg, omega: omega}
	db.cur.Store(&view{
		base:     db.newFilter(),
		baseSets: mapStore{},
	})
	if cfg.WALPath != "" {
		if err := db.AttachWAL(cfg.WALPath, WALOptions{NoSync: cfg.WALNoSync}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) weight() dist.WeightFunc { return dist.WeightNormTo(db.omega) }

func (db *DB) filterConfig() filter.Config {
	var sk *sketch.Params
	if db.cfg.Approx != nil {
		p := db.cfg.Approx.params()
		sk = &p
	}
	return filter.Config{
		Sketch:  sk,
		K:       db.cfg.MaxCard,
		Dim:     db.cfg.Dim,
		Ground:  dist.L2,
		Weight:  db.weight(),
		Omega:   db.omega,
		Tracker: db.cfg.Tracker,
		Workers: db.cfg.Workers,
		// The pair above is exactly the standard configuration the flat
		// kernel specializes (L2 ground, w_ω weights), so refinement can
		// run the allocation-free fast path; results are bit-identical.
		FastL2: true,
	}
}

func (db *DB) newFilter() *filter.Index { return filter.New(db.filterConfig()) }

// queryWorkers is the worker count for delta scans (same resolution as
// the filter pipeline's).
func (db *DB) queryWorkers() int { return parallel.Workers(db.cfg.Workers, 1) }

// Len returns the number of live objects.
func (db *DB) Len() int { return len(db.cur.Load().ids) }

// Dim returns the configured vector dimensionality.
func (db *DB) Dim() int { return db.cfg.Dim }

// MaxCard returns the configured maximum set cardinality k.
func (db *DB) MaxCard() int { return db.cfg.MaxCard }

// Omega returns a copy of the resolved centroid padding vector, so a
// second database (or a sharded cluster adopting this one's data) can be
// opened with bit-identical distance semantics.
func (db *DB) Omega() []float64 { return append([]float64(nil), db.omega...) }

// IDs returns the live object ids in insertion order (a copy).
func (db *DB) IDs() []uint64 {
	v := db.cur.Load()
	return append([]uint64(nil), v.ids...)
}

// Epoch returns the mutation sequence number: it increments once per
// Insert/Delete (a BulkInsert of n objects advances it by n) and is
// stable across compaction and persistence round trips. Serving layers
// key query caches on it.
func (db *DB) Epoch() uint64 { return db.cur.Load().seq }

// Stats is a point-in-time reading of the database's serving gauges.
type Stats struct {
	// Refinements is the cumulative number of exact matching-distance
	// evaluations performed by queries since the last reset — the filter
	// pipeline's selectivity measure. Delta memtable scans count too: each
	// scanned set is an exact evaluation. (In-flight queries racing a
	// compaction may lose their evaluations to the retiring base's
	// counter; the gauge is monotone, not exact.)
	Refinements int64
	// ApproxEnabled reports whether the approximate tier is configured;
	// when false, Query.Approx runs the exact engine.
	ApproxEnabled bool
	// SketchCandidates is the cumulative number of candidates proposed by
	// approximate scans — the tier's analogue of Refinements.
	SketchCandidates int64
	// WALRecords is the number of records in the attached log (0 without
	// one).
	WALRecords int64
	// DeltaLen is the number of objects in the delta memtable (inserted
	// since the last compaction).
	DeltaLen int
	// Tombstones is the number of base-resident objects that are deleted
	// but not yet compacted away, and TombstoneRatio their fraction of the
	// base. Aggregating layers (the sharded cluster coordinator) sum the
	// count to derive a global ratio, which per-database ratios alone
	// cannot give.
	Tombstones     int
	TombstoneRatio float64
	// Compactions is the number of compaction passes performed (automatic
	// and explicit).
	Compactions int64
}

// Stats reads the serving gauges against the current view.
func (db *DB) Stats() Stats {
	v := db.cur.Load()
	return Stats{
		Refinements:      db.refExtra.Load() + v.base.Refinements(),
		ApproxEnabled:    db.cfg.Approx != nil,
		SketchCandidates: db.skExtra.Load() + v.base.SketchCandidates(),
		WALRecords:       db.WALRecords(),
		DeltaLen:         len(v.delta),
		Tombstones:       len(v.tomb),
		TombstoneRatio:   v.tombRatio(),
		Compactions:      db.compactions.Load(),
	}
}

// ResetRefinements zeroes the refinement counter.
func (db *DB) ResetRefinements() {
	db.refExtra.Store(0)
	db.cur.Load().base.ResetRefinements()
}

// Get returns the stored vector set (nil if absent). The rows are views
// into the database's flat buffer; callers must not mutate them.
func (db *DB) Get(id uint64) [][]float64 { return db.cur.Load().get(id).Rows() }

// Distance computes the minimal matching distance between two stored or
// ad-hoc vector sets under the database's configuration. Malformed input
// panics; use DistanceChecked for sets from untrusted sources.
func (db *DB) Distance(a, b [][]float64) float64 {
	return dist.MatchingDistance(a, b, dist.L2, db.weight())
}

// DistanceChecked is Distance with input validation: ragged vector sets
// (vectors of differing dimension, as can arrive from user input) are
// reported as an error instead of a panic.
func (db *DB) DistanceChecked(a, b [][]float64) (float64, error) {
	return dist.MatchingDistanceChecked(a, b, dist.L2, db.weight())
}

// Neighbor is one query result.
type Neighbor struct {
	ID   uint64
	Dist float64
}

// Kind selects the query form. The paper has exactly two (§4.3).
type Kind uint8

const (
	// KNN asks for the Query.K nearest stored objects.
	KNN Kind = iota
	// Range asks for every stored object within Query.Eps.
	Range
)

// Query is one similarity query: a query vector set, its form (k-nn or
// ε-range), and two field-valued modes. The zero Approx and the zero
// Match are the exact engine under the minimal matching distance — modes
// are values of one query, not separate entry points (DESIGN.md §15).
type Query struct {
	// Set is the query vector set.
	Set [][]float64
	// Kind selects k-nn (K applies) or ε-range (Eps applies).
	Kind Kind
	K    int
	Eps  float64
	// Approx proposes base candidates through the sketch tier (DESIGN.md
	// §12) instead of the X-tree ranking: every returned distance is still
	// exact, the approximation is recall. On a database opened without
	// Config.Approx it is ignored — the exact engine answers, result for
	// result — so callers can set it unconditionally. Ignored under
	// Match.Partial, which has no candidate tier at all.
	Approx bool
	// Match selects the set distance (see SetQuery).
	Match SetQuery
}

// Search answers every query of the batch against ONE pinned epoch view:
// the batch is atomic (every entry sees the same epoch even while
// mutators run) and out[i] is exactly what Search of qs[i] alone would
// return at that epoch, because single and batched entries run the same
// per-entry function against the same immutable view. Entries fan out
// over the query worker pool, each refining with its own pooled
// workspace; a batch of one runs inline on the caller's goroutine.
//
// Results are exact (up to Query.Approx), (dist, id)-ordered, and
// identical at any worker count and any epoch representation (compacted
// or not).
func (db *DB) Search(qs []Query) [][]Neighbor {
	v := db.cur.Load()
	out := make([][]Neighbor, len(qs))
	parallel.ForEach(len(qs), db.queryWorkers(), func(i int) {
		out[i] = db.searchView(v, &qs[i])
	})
	return out
}

// KNN returns the k nearest stored objects to the query set under the
// minimal matching distance: Search of one exact KNN query.
func (db *DB) KNN(query [][]float64, k int) []Neighbor {
	return db.Search([]Query{{Set: query, Kind: KNN, K: k}})[0]
}

// Range returns all stored objects within eps of the query set: Search
// of one exact Range query.
func (db *DB) Range(query [][]float64, eps float64) []Neighbor {
	return db.Search([]Query{{Set: query, Kind: Range, Eps: eps}})[0]
}

// KNNBatch answers queries[i] exactly as KNN(queries[i], k) would, in
// one Search (one pinned epoch view for the whole batch).
func (db *DB) KNNBatch(queries [][][]float64, k int) [][]Neighbor {
	qs := make([]Query, len(queries))
	for i, q := range queries {
		qs[i] = Query{Set: q, Kind: KNN, K: k}
	}
	return db.Search(qs)
}

// searchView answers one query against a pinned view. It only picks the
// candidate source; what follows the candidates is shared.
func (db *DB) searchView(v *view, q *Query) []Neighbor {
	if q.Match.Partial {
		return db.partialView(v, q)
	}
	approx := db.cfg.Approx
	if !q.Approx {
		approx = nil
	}
	query := vectorset.FlatFromRows(q.Set)
	if q.Kind == Range {
		var cands []index.Neighbor
		if approx != nil {
			cands = v.base.RangeApproxFlat(query, q.Eps, approx.rangeBudget()+len(v.tomb))
		} else {
			cands = v.base.RangeFlat(query, q.Eps)
		}
		return db.mergeLive(v, query, cands, q.Eps)
	}
	k := min(q.K, len(v.ids))
	if k <= 0 {
		return nil
	}
	// Tombstones widen both the fetch and the approximate budget: a
	// tombstoned object occupying a candidate slot must not evict a live
	// one.
	var cands []index.Neighbor
	if approx != nil {
		cands = v.base.KNNApproxFlat(query, k+len(v.tomb), approx.knnBudget(k)+len(v.tomb))
	} else {
		cands = v.base.KNNFlat(query, k+len(v.tomb))
	}
	out := db.mergeLive(v, query, cands, -1)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// mergeLive turns base candidates into the view's answer: tombstoned
// candidates are dropped, the delta memtable is exact-scanned (eps as in
// deltaScan) — so a freshly inserted object is never missed, whichever
// source proposed the base candidates — and the union is (dist, id)-
// ordered.
func (db *DB) mergeLive(v *view, query vectorset.Flat, cands []index.Neighbor, eps float64) []Neighbor {
	out := make([]Neighbor, 0, len(cands)+len(v.deltaIDs))
	for _, nb := range cands {
		if _, dead := v.tomb[uint64(nb.ID)]; dead {
			continue
		}
		out = append(out, Neighbor{ID: uint64(nb.ID), Dist: nb.Dist})
	}
	out = append(out, db.deltaScan(v, query, eps)...)
	sortNeighbors(out)
	return out
}

// deltaScan computes the exact distance from query to every delta
// object, in parallel on the configured worker pool; eps ≥ 0 filters to
// the range predicate (dist ≤ eps), eps < 0 keeps everything (k-nn).
// Results are deterministic: one slot per delta index, merged in order.
// Distances run through the flat kernel — bit-identical to the generic
// MatchingDistance with L2 ground and w_ω weights.
func (db *DB) deltaScan(v *view, query vectorset.Flat, eps float64) []Neighbor {
	n := len(v.deltaIDs)
	if n == 0 {
		return nil
	}
	dists := make([]float64, n)
	workers := db.queryWorkers()
	parallel.Run(workers, func(worker int) {
		lo, hi := parallel.Chunk(n, workers, worker)
		if lo >= hi {
			return
		}
		ws := dist.GetWorkspace()
		defer dist.PutWorkspace(ws)
		for i := lo; i < hi; i++ {
			dists[i] = ws.MatchingDistanceFlat(query, v.delta[v.deltaIDs[i]], db.omega)
		}
	})
	db.refExtra.Add(int64(n))
	out := make([]Neighbor, 0, n)
	for i, id := range v.deltaIDs {
		if eps >= 0 && dists[i] > eps {
			continue
		}
		out = append(out, Neighbor{ID: id, Dist: dists[i]})
	}
	return out
}

func sortNeighbors(out []Neighbor) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
}
