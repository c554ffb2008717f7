package vsdb

import (
	"github.com/voxset/voxset/internal/index/sketch"
	"github.com/voxset/voxset/internal/parallel"
)

// Approximate queries (DESIGN.md §12): with Config.Approx (or
// LoadOptions.Approx) set, a Query with Approx set answers through the
// sketch candidate tier — the base index proposes the Hamming-closest
// objects and only those are refined with the exact matching distance.
// Every returned distance is still exact; the approximation is recall
// (base objects the sketch scan failed to propose are missed; for ε-range
// internal/recall's ε-recall quantifies how many). Delta-memtable
// objects are always exact-scanned, exactly as in the exact path, so a
// freshly inserted object is never missed. Without Approx configured the
// same queries ARE the exact engine — byte-identical results by
// construction — so callers can wire one code path and toggle the tier by
// configuration.

// Default candidate-budget policy.
const (
	// DefaultKNNFactor over-fetches k-nn candidates: budget = k · factor.
	DefaultKNNFactor = 32
	// DefaultMinCandidates floors the k-nn budget (small k would otherwise
	// starve the refinement stage).
	DefaultMinCandidates = 128
	// DefaultRangeCandidates is the ε-range candidate budget (range
	// queries have no k to scale from).
	DefaultRangeCandidates = 512
)

// ApproxOptions configures the approximate candidate tier.
type ApproxOptions struct {
	// Bits, Active, Seed override the sketch parameters
	// (sketch.DefaultParams for any zero field). Persisted sketch tables
	// are only adopted when all three match; otherwise the table is
	// rebuilt lazily on the first approximate query.
	Bits   int
	Active int
	Seed   uint64
	// KNNFactor scales the k-nn candidate budget: budget = k · KNNFactor,
	// floored at MinCandidates. 0 means DefaultKNNFactor.
	KNNFactor int
	// MinCandidates floors the k-nn budget. 0 means DefaultMinCandidates.
	MinCandidates int
	// RangeCandidates is the ε-range candidate budget. 0 means
	// DefaultRangeCandidates.
	RangeCandidates int
}

// params resolves the sketch parameters with defaults applied.
func (a *ApproxOptions) params() sketch.Params {
	p := sketch.DefaultParams()
	if a.Bits != 0 {
		p.Bits = a.Bits
	}
	if a.Active != 0 {
		p.Active = a.Active
	}
	if a.Seed != 0 {
		p.Seed = a.Seed
	}
	return p
}

func (a *ApproxOptions) knnBudget(k int) int {
	f := a.KNNFactor
	if f <= 0 {
		f = DefaultKNNFactor
	}
	m := a.MinCandidates
	if m <= 0 {
		m = DefaultMinCandidates
	}
	return max(k*f, m)
}

func (a *ApproxOptions) rangeBudget() int {
	if a.RangeCandidates > 0 {
		return a.RangeCandidates
	}
	return DefaultRangeCandidates
}

// viewSketches returns the signature table of the view's live objects in
// insertion order, for persistence; nil when the tier is unconfigured.
// A compacted view hands out the base's table (building it if no
// approximate query ran yet); otherwise signatures are recomputed per
// live set on the worker pool — bit-identical, each signature being a
// pure function of (params, set).
func (db *DB) viewSketches(v *view) *sketch.Block {
	if db.cfg.Approx == nil {
		return nil
	}
	if v.compacted() {
		return v.base.SketchBlock()
	}
	p := db.cfg.Approx.params()
	proj := sketch.NewProjector(p, db.cfg.Dim)
	wordsPer := p.Words()
	words := make([]uint64, len(v.ids)*wordsPer)
	workers := min(parallel.Workers(db.cfg.Workers, parallel.Auto()), len(v.ids))
	parallel.Run(max(workers, 1), func(w int) {
		sc := proj.NewScratch()
		lo, hi := parallel.Chunk(len(v.ids), max(workers, 1), w)
		for i := lo; i < hi; i++ {
			proj.SketchInto(words[i*wordsPer:(i+1)*wordsPer], v.get(v.ids[i]), sc)
		}
	})
	return &sketch.Block{Params: p, Count: len(v.ids), Words: words}
}
