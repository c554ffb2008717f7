package filter

import (
	"fmt"

	"github.com/voxset/voxset/internal/vectorset"
)

// SetStore is a read-only source of vector sets and their extended
// centroids that the index works on in place, instead of copying every
// set into its simulated paged file and every centroid into a tree — the
// contract a memory-mapped snapshot (snapshot.PagedReader) and vsdb's
// heap base satisfy. Implementations must be safe for concurrent use and
// are responsible for their own integrity checks and for the I/O cost of
// reading sets (the mmap store charges the tracker per page actually
// touched, replacing the paged file's simulated charges).
type SetStore interface {
	// Len returns the number of stored sets.
	Len() int
	// At returns the i-th set (insertion order). The result must remain
	// valid for the lifetime of the store; the index never mutates it.
	At(i int) vectorset.Flat
	// CentroidColumn returns every extended centroid as one contiguous
	// block: Len()·Dim float64s, the i-th set's centroid at
	// [i·Dim, (i+1)·Dim), consistent with the index configuration's K and
	// ω. The index keeps the slice for its lifetime (Centroid windows it)
	// and copies it once, in block order, on its first ranking, so it must
	// be stable, never written, and already verified (a mapped region's
	// CRCs checked) when returned.
	CentroidColumn() []float64
}

// StoreBuildOptions is NewBulkStore's option set. It is empty: a
// store-backed index builds nothing at construction.
type StoreBuildOptions struct{}

// NewBulkStore returns a filter index over store: refinement reads sets
// straight from it and ranking reads a blocked copy of its centroid
// column (blockRanker), so there is no per-object re-encoding, no second
// copy of the sets and no tree to build. Construction reads no set and
// computes nothing per object: the first ranking lays the column out in
// blocks (48 B per object at dim 6, plus a permutation and the block
// boxes), and a signature block is encoded when a query first touches it
// (signature.go). ids[i] is the external object id of store.At(i).
// The index answers queries identically to one built by sequential Add
// calls over the same sets (same (distance, id) order), refining fewer
// candidates thanks to its signature stage. It is immutable — Add
// panics.
func NewBulkStore(cfg Config, store SetStore, ids []int, _ StoreBuildOptions) (*Index, error) {
	n := store.Len()
	if n != len(ids) {
		return nil, fmt.Errorf("filter: store holds %d sets but %d ids given", n, len(ids))
	}
	ix := newIndex(cfg)
	col := store.CentroidColumn()
	if len(col) != n*ix.cfg.Dim {
		return nil, fmt.Errorf("filter: centroid column holds %d values, want %d sets × dim %d", len(col), n, ix.cfg.Dim)
	}
	ix.store, ix.col, ix.ids = store, col, ids
	ix.blocks = newBlockRanker(col, n, ix.cfg.Dim, ix.cfg.PageSize, ix.cfg.Tracker)
	ix.ranker = ix.blocks
	if ix.fastL2 {
		// The signature bound holds for L2 ground distance and w_ω weights
		// only. Its blocks are encoded on first touch, not here.
		nb := (n + blockLen - 1) / blockLen
		ix.sigs, ix.sigPool = make([]sigBlock, nb), sigPoolFor(nb)
	}
	return ix, nil
}
