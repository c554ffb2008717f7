package filter

import (
	"fmt"

	"github.com/voxset/voxset/internal/index/xtree"
	"github.com/voxset/voxset/internal/vectorset"
)

// SetStore is a read-only source of vector sets that the index refines
// against in place, instead of copying every set into its simulated
// paged file — the contract a memory-mapped snapshot
// (snapshot.PagedReader) and vsdb's heap base satisfy. Implementations
// must be safe for concurrent At/Centroid calls and are responsible for
// their own integrity checks and I/O cost accounting (the mmap store
// charges the tracker per page actually touched, replacing the paged
// file's simulated charges).
type SetStore interface {
	// Len returns the number of stored sets.
	Len() int
	// At returns the i-th set (insertion order). The result must remain
	// valid for the lifetime of the store; the index never mutates it.
	At(i int) vectorset.Flat
	// Centroid returns the extended centroid of the i-th set, consistent
	// with the index configuration's K and ω.
	Centroid(i int) []float64
}

// StoreBuildOptions tunes NewBulkStore's index construction.
type StoreBuildOptions struct {
	// External STR-sorts the centroids out of core (disk runs + k-way
	// merge) instead of in memory — the million-object build path where
	// the sort working set must stay bounded.
	External bool
	// TmpDir hosts external-sort spill files (system temp dir if empty).
	TmpDir string
	// RunSize bounds the in-memory sort run (xtree default if zero).
	RunSize int
}

// NewBulkStore builds a filter index whose refinement step reads
// straight from store: no per-object re-encoding, no second copy of the
// database in the paged file. ids[i] is the external object id of
// store.At(i). The X-tree is STR-bulk-loaded from the store's centroids
// instead of grown by insertion; the returned index answers queries
// identically to one built by sequential Add calls over the same sets
// (same exact refinement, same (distance, id) order). It is immutable —
// Add panics.
func NewBulkStore(cfg Config, store SetStore, ids []int, opt StoreBuildOptions) (*Index, error) {
	n := store.Len()
	if n != len(ids) {
		return nil, fmt.Errorf("filter: store holds %d sets but %d ids given", n, len(ids))
	}
	ix := New(cfg)
	ix.store = store
	ix.ids = ids
	ix.cents = make([][]float64, n)
	for i := range ix.cents {
		ix.cents[i] = store.Centroid(i)
	}
	if n == 0 {
		return ix, nil
	}
	if opt.External {
		i := 0
		tree, err := xtree.BulkLoadExternal(cfg.Dim, n, func(p []float64) (int, error) {
			copy(p, ix.cents[i])
			i++
			return i - 1, nil
		}, xtree.ExternalConfig{
			Config:  xtree.Config{Tracker: ix.cfg.Tracker, PageSize: ix.cfg.PageSize},
			TmpDir:  opt.TmpDir,
			RunSize: opt.RunSize,
		})
		if err != nil {
			return nil, err
		}
		ix.tree = tree
		return ix, nil
	}
	internal := make([]int, n)
	for i := range internal {
		internal[i] = i
	}
	ix.tree = xtree.BulkLoad(ix.cents, internal, xtree.Config{
		Tracker:  ix.cfg.Tracker,
		PageSize: ix.cfg.PageSize,
	})
	return ix, nil
}
