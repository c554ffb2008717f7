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
//   - base: the filter index over objects as of the last compaction — it
//     ranks their contiguous centroid column and refines their sets in
//     place, and owns no tree;
//   - delta: a small memtable of objects inserted since, each stored
//     with its extended centroid and its encoded signature. It has no
//     index, but it is filtered like the base: a query walks it as a second
//     candidate stream in ascending centroid lower bound, merged with the
//     base's in one bound order (Stream, MultiStep), and refines only the
//     entries that neither bound rules out (running the matching on all
//     ≤ MaxDelta sets measured 4× the base's own refinements), so
//     filter-vs-scan parity holds at every epoch;
//   - tomb: tombstones for deleted base-resident objects, which the
//     base's candidate ranking skips before refining them.
//
// A mutated view therefore runs the exact evaluations its compacted
// form would, give or take ties in the bound. The same streams let a
// sharded coordinator run one loop per query over every shard (Open).
// Compaction folds delta and tomb back into a fresh base that
// keeps the centroids already computed (one block, copied, not a tree); it
// triggers automatically on the MaxDelta / CompactRatio thresholds or
// explicitly via Compact. Every view carries the mutation
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
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index/filter"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// Default live-update thresholds (DESIGN.md §8).
const (
	// DefaultMaxDelta is the delta-memtable size that triggers a
	// compaction: beyond it the linear pass over unindexed centroids
	// starts to rival the filter walk it bypasses.
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
	// ErrNonFinite reports a set with a NaN or ±Inf coordinate, which
	// would poison every distance it takes part in and with them the
	// (dist, id) order of every answer. CheckSet refuses it wherever a set
	// enters: Insert, BulkInsert, log replay and
	// replicated records (a CRC guards the bytes, not what they say), and
	// every query (Search, Open).
	ErrNonFinite = errors.New("non-finite coordinate")
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
	// base is the filter index as of the last compaction, with
	// baseSets resolving its sets by id (including tombstoned ones).
	// Heap-resident databases use a heapStore of contiguous
	// vectorset.Flat buffers (DESIGN.md §10), owned exclusively by the
	// view history and never written after publication, which base
	// refines against in place; mmap-backed databases (OpenFile on a
	// paged snapshot) use a snapStore whose sets alias the mapping
	// (DESIGN.md §11).
	base     *filter.Index
	baseSets baseStore
	// tomb marks base-resident ids that have been deleted.
	tomb map[uint64]struct{}
	// delta holds objects inserted since the last compaction, visited
	// by every query in centroid-bound order; deltaIDs is its insertion
	// order.
	delta    map[uint64]deltaEntry
	deltaIDs []uint64
	// ids is the live object ids in storage order: the base's in block
	// order (its positions), then the delta's in insertion order.
	ids []uint64
}

// deltaEntry is one memtable object: its set, the extended centroid
// that lower-bounds its distance to any query (Lemma 2), and its
// signature encoded as a block of one (the bound function the base's
// chunks share), both computed once when the entry is created.
type deltaEntry struct {
	set  vectorset.Flat
	cent []float64
	sig  *dist.SignatureCodes
}

func (db *DB) newDeltaEntry(set vectorset.Flat) deltaEntry {
	return deltaEntry{
		set:  set,
		cent: set.Centroid(db.cfg.MaxCard, db.omega),
		sig:  dist.EncodeSignatures([]vectorset.Flat{set}, db.cfg.MaxCard, db.omega),
	}
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
	if e, ok := v.delta[id]; ok {
		return e.set
	}
	if _, dead := v.tomb[id]; dead {
		return vectorset.Flat{}
	}
	set, _ := v.baseSets.baseGet(id)
	return set
}

// centroid returns the stored extended centroid of a live id.
func (v *view) centroid(id uint64) []float64 {
	if e, ok := v.delta[id]; ok {
		return e.cent
	}
	return v.baseSets.baseCentroid(id)
}

// baseLive is the liveness predicate the base's candidate ranking skips
// tombstoned objects with; nil (everything is live) without tombstones.
func (v *view) baseLive() func(id int) bool {
	if len(v.tomb) == 0 {
		return nil
	}
	return func(id int) bool {
		_, dead := v.tomb[uint64(id)]
		return !dead
	}
}

// compacted reports whether the view is exactly its base (no delta, no
// tombstones) — the state in which ids aligns with the base's positions.
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

	// refExtra accumulates the refinements that the current base's counter
	// does not cover: delta scans, plus the harvested counters of bases
	// retired by compaction. sigExtra does the same for the signature
	// prunes, matchExtra for the matchings run to completion.
	refExtra    atomic.Int64
	sigExtra    atomic.Int64
	matchExtra  atomic.Int64
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
	base, baseSets := db.newHeapBase(nil, nil, nil) // no sets: stored is never called
	db.cur.Store(&view{base: base, baseSets: baseSets})
	if cfg.WALPath != "" {
		if err := db.AttachWAL(cfg.WALPath, WALOptions{NoSync: cfg.WALNoSync}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) weight() dist.WeightFunc { return dist.WeightNormTo(db.omega) }

func (db *DB) filterConfig() filter.Config {
	return filter.Config{
		K:       db.cfg.MaxCard,
		Dim:     db.cfg.Dim,
		Ground:  dist.L2,
		Weight:  db.weight(),
		Omega:   db.omega,
		Tracker: db.cfg.Tracker,
		// The pair above is exactly the standard configuration the flat
		// kernel specializes (L2 ground, w_ω weights), so refinement can
		// run the allocation-free fast path; results are bit-identical.
		FastL2: true,
	}
}

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

// IDs returns the live object ids in storage order (a copy): the base's
// in block order — the order a compaction or an opened snapshot file
// stores them in — then those inserted since, in insertion order.
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
	// Refinements is the cumulative number of candidates queries fetched
	// and handed to the matching kernel since the last reset — the filter
	// pipeline's selectivity measure (the paper's Table 2 quantity: the
	// set's page is read either way). Delta memtable entries count when
	// they are refined, not when their centroid or signature bound prunes
	// them, and tombstoned base objects are skipped unrefined. (In-flight
	// queries racing a compaction may lose their evaluations to the
	// retiring base's counter; the gauge is monotone, not exact.)
	Refinements int64
	// SignaturePruned is the cumulative number of candidates, base and
	// delta, that passed the centroid bound but that the sorted per-axis
	// projection bound proved beyond the threshold before their set was
	// fetched (DESIGN.md §6). They are not among Refinements.
	SignaturePruned int64
	// Matchings is how many of those refinements ran the O(k³) matching
	// to completion — the Hungarian solves run. The rest were settled in
	// O(k²) by the kernel's assignment lower bound against the threshold
	// the loop held (the k-th distance, ε), so Matchings ÷ Refinements is
	// the share of candidates the second filter stage let through.
	Matchings int64
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
		Refinements:     db.refExtra.Load() + v.base.Refinements(),
		SignaturePruned: db.sigExtra.Load() + v.base.SignaturePruned(),
		Matchings:       db.matchExtra.Load() + v.base.Matchings(),
		WALRecords:      db.WALRecords(),
		DeltaLen:        len(v.delta),
		Tombstones:      len(v.tomb),
		TombstoneRatio:  v.tombRatio(),
		Compactions:     db.compactions.Load(),
	}
}

// ResetRefinements zeroes the signature-pruned, refinement and matching
// counters.
func (db *DB) ResetRefinements() {
	db.refExtra.Store(0)
	db.sigExtra.Store(0)
	db.matchExtra.Store(0)
	db.cur.Load().base.ResetRefinements()
}

// Get returns the stored vector set (nil if absent). The rows are views
// into the database's flat buffer; callers must not mutate them.
func (db *DB) Get(id uint64) [][]float64 { return db.cur.Load().get(id).Rows() }

// Distance computes the minimal matching distance between two stored or
// ad-hoc vector sets under the database's configuration. Malformed input
// panics; check sets from untrusted sources with CheckSet first.
func (db *DB) Distance(a, b [][]float64) float64 {
	return dist.MatchingDistance(a, b, dist.L2, db.weight())
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
// ε-range), and a field-valued mode. The zero Match is the exact engine
// under the minimal matching distance — modes are values of one query,
// not separate entry points (DESIGN.md §15).
type Query struct {
	// Set is the query vector set.
	Set [][]float64
	// Kind selects k-nn (K applies) or ε-range (Eps applies).
	Kind Kind
	K    int
	Eps  float64
	// Match selects the set distance (see SetQuery).
	Match SetQuery
}

// Check validates the query against a database of dimension dim and
// cardinality bound maxCard: its set (CheckSet, in query wording), k ≥ 1
// for a k-nn, a finite ε ≥ 0 for a range. A malformed query would panic
// in the kernel, spin in it (an infinite coordinate) or answer nothing
// (a NaN one); Open refuses it instead.
func (q *Query) Check(dim, maxCard int) error {
	if err := CheckSet(q.Set, dim, maxCard, true); err != nil {
		return err
	}
	switch {
	case q.Kind > Range:
		return fmt.Errorf("unknown query kind %d", q.Kind)
	case q.Kind == KNN && q.K < 1:
		return fmt.Errorf("k must be ≥ 1, got %d", q.K)
	case q.Kind == Range && !(q.Eps >= 0 && q.Eps < math.Inf(1)):
		return fmt.Errorf("eps must be a finite value ≥ 0, got %v", q.Eps)
	}
	return nil
}

// Search answers every query of the batch against ONE pinned epoch view:
// the batch is atomic (every entry sees the same epoch even while
// mutators run) and out[i] is exactly what Search of qs[i] alone would
// return at that epoch, because single and batched entries run the same
// per-entry function against the same immutable view. Entries run in
// order on the caller's goroutine; concurrency comes from concurrent
// callers, which share the view lock-free. Every entry is MultiStep over
// its one Stream (Open).
//
// Results are exact, (dist, id)-ordered, and identical at any epoch
// representation (compacted or not). A malformed entry fails the call
// before any work (Query.Check; the error names the entry), and once ctx
// is done Search stops within one block of refinements and returns
// ctx.Err().
func (db *DB) Search(ctx context.Context, qs []Query) ([][]Neighbor, error) {
	streams, err := db.Open(qs)
	if err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(qs))
	for i, s := range streams {
		out[i], err = MultiStep(ctx, []*Stream{s})
		s.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// KNN returns the k nearest stored objects to the query set under the
// minimal matching distance: Search of one exact KNN query, nil for a
// malformed one. It drops Search's error, so it is for the benchmark
// harness and tests, which send well-formed queries; every other caller
// uses Search, which reports why a query is malformed.
func (db *DB) KNN(query [][]float64, k int) []Neighbor {
	return db.searchOne(Query{Set: query, Kind: KNN, K: k})
}

// Range returns all stored objects within eps of the query set: Search
// of one exact Range query, nil for a malformed one. Like KNN it drops
// Search's error and is for the benchmark harness and tests.
func (db *DB) Range(query [][]float64, eps float64) []Neighbor {
	return db.searchOne(Query{Set: query, Kind: Range, Eps: eps})
}

func (db *DB) searchOne(q Query) []Neighbor {
	out, err := db.Search(context.Background(), []Query{q})
	if err != nil {
		return nil
	}
	return out[0]
}

// KNNBatch answers queries[i] exactly as KNN(queries[i], k) would, in
// one Search (one pinned epoch view for the whole batch); nil when an
// entry is malformed. Like KNN it drops Search's error and is for the
// benchmark harness and tests.
func (db *DB) KNNBatch(queries [][][]float64, k int) [][]Neighbor {
	qs := make([]Query, len(queries))
	for i, q := range queries {
		qs[i] = Query{Set: q, Kind: KNN, K: k}
	}
	out, _ := db.Search(context.Background(), qs)
	return out
}

// deltaBound is the Lemma 2 lower bound MaxCard·‖C(X)−C(q)‖₂ of a delta
// entry's distance to the query with extended centroid cq — the very
// expression the filter ranks base objects by, so a delta entry is pruned
// exactly when it would be after compaction (both sides hold the bound
// against their threshold with vectorset.BoundExceeds).
func (db *DB) deltaBound(cq []float64, e deltaEntry) float64 {
	return vectorset.CentroidLowerBound(cq, e.cent, db.cfg.MaxCard)
}
