package filter

// The approximate candidate tier (DESIGN.md §12): instead of walking
// the centroid ranking with the Lemma-2 lower bound, an approximate query
// scans the per-object sparse binary signatures (internal/index/sketch)
// by Hamming distance, takes the `budget` closest objects as the
// candidate set, and hands that set to the SAME exact Hungarian
// refinement the exact engine uses. The answer's distances are
// therefore always exact; approximation only shows up as candidates the
// Hamming scan failed to propose — the quantity the recall harness
// (internal/recall) measures.
//
// The signature table is built lazily on the first approximate query
// (so enabling the tier never slows an exact-only workload or a cold
// open), or adopted from a snapshot's sketch chunk via AttachSketches.
// Both paths produce byte-identical tables at any worker count: each
// object's signature is a pure function of (Params, set) and is written
// into its own slot.

import (
	"fmt"
	"math"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/sketch"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/vectorset"
)

// SketchEnabled reports whether the index has an approximate tier
// configured. When false, the Approx queries run the exact engine.
func (ix *Index) SketchEnabled() bool { return ix.cfg.Sketch != nil }

// SketchCandidates returns the cumulative number of candidates proposed
// by approximate scans (the approximate analogue of Refinements).
func (ix *Index) SketchCandidates() int64 { return ix.skCands.Load() }

// AttachSketches hands the index a signature table restored from a
// snapshot, sparing the lazy rebuild. It must be called before the
// first approximate query (the load path does). The block is adopted
// only if it matches the configured parameters and the object count;
// a mismatched block is an error and the caller decides whether to fall
// back to the lazy rebuild.
func (ix *Index) AttachSketches(b *sketch.Block) error {
	if ix.cfg.Sketch == nil {
		return fmt.Errorf("filter: attaching sketches to an exact-only index")
	}
	if b.Params != *ix.cfg.Sketch {
		return fmt.Errorf("filter: sketch params %+v do not match configured %+v", b.Params, *ix.cfg.Sketch)
	}
	if b.Count != ix.Len() {
		return fmt.Errorf("filter: sketch block covers %d objects, index has %d", b.Count, ix.Len())
	}
	ix.skAttached = b
	return nil
}

// SketchBlock returns the index's signature table (building it if no
// approximate query ran yet), for persistence. nil when the tier is
// disabled.
func (ix *Index) SketchBlock() *sketch.Block {
	if ix.cfg.Sketch == nil {
		return nil
	}
	ix.ensureSketches()
	return &sketch.Block{Params: *ix.cfg.Sketch, Count: ix.Len(), Words: ix.skWords}
}

// ensureSketches materializes the projector and the signature table
// exactly once. Indexes are immutable once they serve approximate
// queries (vsdb never mutates a published base; compaction builds a new
// index), so the table never goes stale.
func (ix *Index) ensureSketches() {
	ix.skOnce.Do(func() {
		p := *ix.cfg.Sketch
		ix.skProj = sketch.NewProjector(p, ix.cfg.Dim)
		if ix.skAttached != nil && ix.skAttached.Count == ix.Len() {
			ix.skWords = ix.skAttached.Words
			return
		}
		wordsPer := p.Words()
		n := ix.Len()
		ix.skWords = make([]uint64, n*wordsPer)
		workers := min(ix.workers, n)
		parallel.Run(max(workers, 1), func(w int) {
			ws := dist.GetWorkspace()
			defer dist.PutWorkspace(ws)
			sc := ix.skProj.NewScratch()
			lo, hi := parallel.Chunk(n, max(workers, 1), w)
			for i := lo; i < hi; i++ {
				ix.skProj.SketchInto(ix.skWords[i*wordsPer:(i+1)*wordsPer], ix.fetchFlat(ws, i), sc)
			}
		})
	})
}

// approxQuery prepares the query view without the centroid computation
// the exact pipeline needs (the sketch scan replaces the centroid ranking).
func (ix *Index) approxQuery(q vectorset.Flat) qview {
	if ix.fastL2 {
		return qview{flat: q, fast: true}
	}
	return qview{rows: q.Rows()}
}

// sketchCandidates runs the Hamming scan for q and returns the budget
// closest objects by (Hamming, insertion index). The scan is
// deterministic, so the candidate set — and with it the refined result
// — is identical at any worker count.
func (ix *Index) sketchCandidates(q vectorset.Flat, budget int) []sketch.Candidate {
	ix.ensureSketches()
	wordsPer := ix.skProj.Params().Words()
	sc := ix.skProj.NewScratch()
	qsig := ix.skProj.SketchInto(make([]uint64, wordsPer), q, sc)
	cands := sketch.Top(ix.skWords, wordsPer, qsig, budget, nil)
	ix.skCands.Add(int64(len(cands)))
	return cands
}

// refineCandidates evaluates the exact matching distance of every
// candidate on the worker pool, into per-candidate slots; a distance the
// kernel proves greater than bound comes back +Inf.
func (ix *Index) refineCandidates(q qview, cands []sketch.Candidate, bound float64) []float64 {
	dists := make([]float64, len(cands))
	workers := min(ix.workers, len(cands))
	parallel.Run(max(workers, 1), func(w int) {
		ws := dist.GetWorkspace()
		defer dist.PutWorkspace(ws)
		var t tally
		lo, hi := parallel.Chunk(len(cands), max(workers, 1), w)
		for i := lo; i < hi; i++ {
			dists[i] = ix.exact(ws, q, cands[i].Index, bound, &t)
		}
		ix.publish(t)
	})
	return dists
}

// KNNApproxFlat answers a k-nn query through the approximate tier: the
// budget Hamming-closest objects are refined exactly and the best k by
// (distance, id) are returned — exact distances over an approximate
// candidate set. With the tier disabled it is exactly KNNFlat.
func (ix *Index) KNNApproxFlat(q vectorset.Flat, k, budget int) []index.Neighbor {
	if ix.cfg.Sketch == nil {
		return ix.KNNFlat(q, k)
	}
	if k <= 0 || ix.Len() == 0 {
		return nil
	}
	if budget < k {
		budget = k
	}
	cands := ix.sketchCandidates(q, budget)
	dists := ix.refineCandidates(ix.approxQuery(q), cands, math.Inf(1))
	var results resultHeap
	for i, c := range cands {
		results.offer(index.Neighbor{ID: ix.ids[c.Index], Dist: dists[i]}, k)
	}
	out := make([]index.Neighbor, len(results))
	copy(out, results)
	index.SortNeighbors(out)
	return out
}

// RangeApproxFlat answers an ε-range query through the approximate
// tier: the budget Hamming-closest objects are refined exactly and
// those within eps are returned in (distance, id) order. Every returned
// object truly lies within eps (distances are exact); objects the scan
// did not propose are missed — the harness's ε-recall quantifies how
// many. With the tier disabled it is exactly RangeFlat.
func (ix *Index) RangeApproxFlat(q vectorset.Flat, eps float64, budget int) []index.Neighbor {
	if ix.cfg.Sketch == nil {
		return ix.RangeFlat(q, eps)
	}
	if ix.Len() == 0 || budget <= 0 {
		return nil
	}
	cands := ix.sketchCandidates(q, budget)
	dists := ix.refineCandidates(ix.approxQuery(q), cands, eps)
	var out []index.Neighbor
	for i, c := range cands {
		if dists[i] <= eps {
			out = append(out, index.Neighbor{ID: ix.ids[c.Index], Dist: dists[i]})
		}
	}
	index.SortNeighbors(out)
	return out
}
