package vsdb

import (
	"fmt"
	"sync"

	"github.com/voxset/voxset/internal/index/filter"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// Million-object serving (DESIGN.md §11): a paged VXSNAP02 snapshot is
// opened by mmap and served in place — base sets and the centroid column
// the filter ranks alias the mapping, nothing is decoded per object and
// nothing is built, so open cost does not grow with the object count.

// baseStore resolves base-resident sets and their extended centroids by
// id. Heap-resident databases use heapStore; mmap-backed ones use
// snapStore.
type baseStore interface {
	baseHas(id uint64) bool
	baseGet(id uint64) (vectorset.Flat, bool)
	// baseCentroid returns the stored extended centroid of a resident id.
	baseCentroid(id uint64) []float64
}

// heapStore is the heap-resident base: one contiguous flat buffer per
// object and one column of extended centroids (dim floats each), both in
// block order (vectorset.BlockOrder), resolved by id through idx. It is
// also the filter index's SetStore — refinement reads sets[i] and ranking
// reads cents in place — so the base and its centroids exist once, not a
// second time encoded into the filter's simulated paged file or copied
// into a tree.
type heapStore struct {
	sets    []vectorset.Flat
	cents   []float64
	dim     int
	idx     map[uint64]int
	tracker *storage.Tracker
}

func (s *heapStore) Len() int { return len(s.sets) }

// At charges the tracker what reading the set's record from the
// simulated paged file would: the pages the record spans and its bytes.
func (s *heapStore) At(i int) vectorset.Flat {
	if s.tracker != nil {
		size := s.sets[i].EncodedSize()
		s.tracker.AddPageAccess((size + storage.DefaultPageSize - 1) / storage.DefaultPageSize)
		s.tracker.AddBytes(size)
	}
	return s.sets[i]
}

func (s *heapStore) CentroidColumn() []float64 { return s.cents }

func (s *heapStore) centroid(i int) []float64 {
	return s.cents[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
}

func (s *heapStore) baseHas(id uint64) bool {
	_, ok := s.idx[id]
	return ok
}

func (s *heapStore) baseGet(id uint64) (vectorset.Flat, bool) {
	i, ok := s.idx[id]
	if !ok {
		return vectorset.Flat{}, false
	}
	return s.sets[i], true
}

func (s *heapStore) baseCentroid(id uint64) []float64 { return s.centroid(s.idx[id]) }

// newHeapBase builds a compacted heap base over sets[i] ↦ ids[i]: the
// store and the filter index that refines and ranks against it in place.
// stored(i) is the i-th set's extended centroid under the database's
// MaxCard and ω where one is already held (it is copied into the store's
// column), nil where it must be computed; both happen on the worker pool,
// so stored must be safe for concurrent calls. The base is stored in block
// order (vectorset.BlockOrder), and ids is reordered in place to match it.
func (db *DB) newHeapBase(ids []uint64, sets []vectorset.Flat, stored func(i int) []float64) (*filter.Index, *heapStore) {
	dim := db.cfg.Dim
	cents := make([]float64, len(sets)*dim)
	parallel.ForEach(len(sets), parallel.Workers(0, parallel.Auto()), func(i int) {
		if c := stored(i); c != nil {
			copy(cents[i*dim:(i+1)*dim], c)
		} else {
			sets[i].CentroidInto(cents[i*dim:(i+1)*dim], db.cfg.MaxCard, db.omega)
		}
	})
	perm := vectorset.BlockOrder(ids, cents, dim)
	st := &heapStore{
		sets:    make([]vectorset.Flat, len(sets)),
		cents:   make([]float64, len(cents)),
		dim:     dim,
		idx:     make(map[uint64]int, len(ids)),
		tracker: db.cfg.Tracker,
	}
	byPos := make([]uint64, len(ids))
	for s, i := range perm {
		byPos[s], st.sets[s] = ids[i], sets[i]
		copy(st.centroid(s), cents[i*dim:(i+1)*dim])
	}
	copy(ids, byPos)
	intIDs := make([]int, len(ids))
	for i, id := range ids {
		st.idx[id] = i
		intIDs[i] = int(id)
	}
	ix, err := filter.NewBulkStore(db.filterConfig(), st, intIDs, filter.StoreBuildOptions{})
	if err != nil {
		// Only a length mismatch fails the build.
		panic(fmt.Sprintf("vsdb: heap base over %d ids, %d sets: %v", len(ids), len(sets), err))
	}
	return ix, st
}

// snapStore serves base sets straight from a mapped paged snapshot.
// The id→index map is built lazily on the first mutation or point
// lookup: the query hot path (filter index → refinement in place)
// never needs it, so a read-only open stays O(1) in decode work.
type snapStore struct {
	r    *snapshot.PagedReader
	once sync.Once
	idx  map[uint64]int
}

func (s *snapStore) index() map[uint64]int {
	s.once.Do(func() {
		ids := s.r.IDs()
		idx := make(map[uint64]int, len(ids))
		for i, id := range ids {
			idx[id] = i
		}
		s.idx = idx
	})
	return s.idx
}

func (s *snapStore) baseHas(id uint64) bool {
	_, ok := s.index()[id]
	return ok
}

func (s *snapStore) baseGet(id uint64) (vectorset.Flat, bool) {
	i, ok := s.index()[id]
	if !ok {
		return vectorset.Flat{}, false
	}
	return s.r.At(i), true
}

func (s *snapStore) baseCentroid(id uint64) []float64 { return s.r.Centroid(s.index()[id]) }

// OpenFile opens a paged (VXSNAP02) snapshot file — written by SaveFile,
// Checkpoint or snapshot.ConvertFile — by
// memory-mapping it and serving it in place: base sets alias the mapping
// (verified lazily, one CRC per page on first touch) and so does the
// centroid column the filter ranks (verified here, once), so nothing is
// decoded or built per object. A legacy version-1 file is first upgraded
// in place, once (snapshot.ConvertFile replaces it atomically; a corrupt
// one fails with snapshot.ErrCorrupt and is left untouched).
//
// The returned database is fully mutable; mutations land in the delta
// memtable and the first compaction materializes the base to heap.
// Close unmaps the snapshot, so an mmap-backed database must not be
// queried after Close.
func OpenFile(path string, opt LoadOptions) (*DB, error) {
	ver, err := snapshot.SniffFile(path)
	if err != nil {
		return nil, fmt.Errorf("vsdb: %w", err)
	}
	if ver == 1 {
		if err := snapshot.ConvertFile(path, path, 0); err != nil {
			return nil, fmt.Errorf("vsdb: upgrading %s: %w", path, err)
		}
	}
	r, err := snapshot.OpenPaged(path, snapshot.PagedReaderOptions{Tracker: opt.Tracker})
	if err != nil {
		return nil, fmt.Errorf("vsdb: %w", err)
	}
	db, err := openPaged(r, opt)
	if err != nil {
		r.Close()
		return nil, err
	}
	return db, nil
}

func openPaged(r *snapshot.PagedReader, opt LoadOptions) (*DB, error) {
	cfg := Config{
		Dim:          r.Dim(),
		MaxCard:      r.MaxCard(),
		Omega:        r.Omega(),
		Tracker:      opt.Tracker,
		MaxDelta:     opt.MaxDelta,
		CompactRatio: opt.CompactRatio,
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The filter ranks the centroid region in place, a query reading the
	// blocks its reach meets, and the lazy-CRC accessors panic on damage:
	// verifying the region up front turns a corrupt file into an
	// ErrCorrupt return instead of a fault mid-query.
	if err := r.CheckCentroids(); err != nil {
		return nil, fmt.Errorf("vsdb: %w", err)
	}
	db := &DB{cfg: cfg, omega: cfg.Omega, reader: r}
	ids := r.IDs()
	intIDs := make([]int, len(ids))
	for i, id := range ids {
		intIDs[i] = int(id)
	}
	ix, err := filter.NewBulkStore(db.filterConfig(), r, intIDs, filter.StoreBuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("vsdb: %w", err)
	}
	db.cur.Store(&view{
		seq:      r.Seq(),
		base:     ix,
		baseSets: &snapStore{r: r},
		ids:      ids,
	})
	if opt.WALPath != "" {
		if err := db.AttachWAL(opt.WALPath, WALOptions{NoSync: opt.WALNoSync}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Mapped reports whether the database serves its base from a
// memory-mapped paged snapshot.
func (db *DB) Mapped() bool {
	return db.reader != nil && db.reader.Mapped()
}
