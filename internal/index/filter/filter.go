// Package filter implements the paper's filter/refinement query pipeline
// for vector-set data (§4.3): the 6-dimensional extended centroids of all
// vector sets are indexed in an X-tree; k·‖C(X)−C(q)‖₂ lower-bounds the
// minimal matching distance (Lemma 2), so
//
//   - ε-range queries refine only objects whose centroid lies within
//     ε/k of the query centroid (Korn et al. [19]), and
//   - k-nn queries use the optimal multi-step algorithm of Seidl &
//     Kriegel [29]: rank candidates by filter distance, refine with the
//     exact matching distance, stop when the next filter distance exceeds
//     the current k-th exact distance.
//
// Refinement fetches the vector set from a simulated paged file, charging
// the shared storage tracker, exactly like the paper's Table 2 setup — or,
// for a NewBulkStore index, reads it in place from the caller's SetStore.
//
// With Config.Workers > 1 (or VOXSET_WORKERS set) the refinement step
// runs on a bounded worker pool: range queries split the candidate list,
// k-nn queries refine ranking batches concurrently with a shared atomic
// pruning threshold. Results are identical to the sequential engine at
// any worker count; a parallel k-nn may perform slightly more exact
// evaluations than the sequential optimum (see DESIGN.md §6).
//
// Every refinement loop hands the threshold it holds (the current k-th
// exact distance, ε) down to the matching kernel, whose O(k²) assignment
// lower bound settles most candidates without the O(k³) solve:
// Refinements counts the candidates fetched, Matchings the solves run.
package filter

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/sketch"
	"github.com/voxset/voxset/internal/index/xtree"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// Config tunes the pipeline.
type Config struct {
	// K is the maximum vector set cardinality (the paper's number of
	// covers k); required.
	K int
	// Dim is the vector dimension (6 for cover features); required.
	Dim int
	// Ground is the ground distance (dist.L2 if nil).
	Ground dist.Func
	// Weight is the unmatched-element weight function (dist.WeightNorm,
	// i.e. ω = 0, if nil).
	Weight dist.WeightFunc
	// Omega is the centroid padding vector (zero vector if nil). It must
	// be consistent with Weight for the lower bound to hold.
	Omega []float64
	// PageSize for the simulated vector-set file (storage.DefaultPageSize
	// if zero).
	PageSize int
	// Tracker is charged for X-tree node accesses and vector-set record
	// reads (optional).
	Tracker *storage.Tracker
	// Workers is the number of refinement workers per query. 0 consults
	// the VOXSET_WORKERS environment variable and defaults to 1
	// (sequential). Query results are identical at any setting.
	Workers int
	// Sketch enables the approximate candidate tier (DESIGN.md §12):
	// per-object sparse binary signatures scanned by Hamming distance
	// instead of the X-tree ranking. nil keeps the index exact-only;
	// KNNApproxFlat/RangeApproxFlat then fall back to the exact engine,
	// which is what makes "approx off" byte-identical by construction.
	Sketch *sketch.Params
	// FastL2 routes refinement through the specialized flat kernel
	// (dist.MatchingDistanceFlat): candidate records decode into a
	// per-workspace flat buffer with zero steady-state allocation and the
	// cost matrix fills in one pass. It is valid — and bit-identical to
	// the generic path — only for the standard configuration, Ground =
	// dist.L2 with Weight = w_ω; New enables it automatically when both
	// Ground and Weight are nil (the defaults are exactly that pair), and
	// callers that pass the pair explicitly (vsdb) set it themselves.
	FastL2 bool
}

// Index is a filter/refinement index over vector sets.
type Index struct {
	cfg   Config
	omega []float64
	tree  *xtree.Tree
	file  *storage.PagedFile
	store SetStore    // non-nil for a NewBulkStore index: refine in place
	recs  []int       // record id per object insertion order
	ids   []int       // object id per insertion order
	cents [][]float64 // extended centroid per insertion order

	fastL2 bool
	encBuf []byte // reused serialization buffer (Add is caller-serialized)

	workers     int
	refinements atomic.Int64 // candidates fetched and handed to the kernel
	matchings   atomic.Int64 // of those, distances computed in full

	// Approximate tier state (sketch.go): the signature table is built
	// lazily on the first approximate query, or adopted from a snapshot
	// via AttachSketches.
	skOnce     sync.Once
	skProj     *sketch.Projector
	skWords    []uint64
	skAttached *sketch.Block
	skCands    atomic.Int64
}

// New returns an empty filter index.
func New(cfg Config) *Index {
	if cfg.K <= 0 || cfg.Dim <= 0 {
		panic(fmt.Sprintf("filter: K (%d) and Dim (%d) must be positive", cfg.K, cfg.Dim))
	}
	if cfg.Ground == nil && cfg.Weight == nil && cfg.Omega == nil {
		// The defaults are exactly the pair the flat kernel specializes:
		// L2 ground distance and WeightNorm ≡ w_ω for the zero-ω default,
		// bit for bit.
		cfg.FastL2 = true
	}
	if cfg.Ground == nil {
		cfg.Ground = dist.L2
	}
	if cfg.Weight == nil {
		cfg.Weight = dist.WeightNorm
	}
	omega := cfg.Omega
	if omega == nil {
		omega = make([]float64, cfg.Dim)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	return &Index{
		cfg:     cfg,
		omega:   omega,
		tree:    xtree.New(cfg.Dim, xtree.Config{Tracker: cfg.Tracker, PageSize: cfg.PageSize}),
		file:    storage.NewPagedFile(cfg.PageSize, cfg.Tracker),
		fastL2:  cfg.FastL2,
		workers: parallel.Workers(cfg.Workers, 1),
	}
}

// Len returns the number of indexed vector sets.
func (ix *Index) Len() int { return len(ix.ids) }

// Workers returns the resolved refinement worker count.
func (ix *Index) Workers() int { return ix.workers }

// Refinements returns the cumulative number of candidates queries
// fetched and handed to the matching kernel (the filter's selectivity
// measure, the paper's Table 2 quantity: the set's page is read whether
// or not the kernel then runs the matching to completion).
func (ix *Index) Refinements() int64 { return ix.refinements.Load() }

// Matchings returns how many of those refinements computed the matching
// distance in full — the Hungarian solves run; the rest were settled by
// the kernel's assignment lower bound against the loop's threshold.
func (ix *Index) Matchings() int64 { return ix.matchings.Load() }

// ResetRefinements zeroes the refinement and matching counters.
func (ix *Index) ResetRefinements() {
	ix.refinements.Store(0)
	ix.matchings.Store(0)
}

// Add indexes the vector set under the given object id, appending its
// record to the paged file. The serialization buffer is reused across
// calls — the paged file copies the record.
func (ix *Index) Add(set [][]float64, id int) {
	if ix.store != nil {
		panic("filter: a store-backed index is immutable")
	}
	f := vectorset.FlatFromRows(set)
	c := f.Centroid(ix.cfg.K, ix.omega) // panics on cardinality > K
	ix.tree.Insert(c, len(ix.ids))
	ix.encBuf = f.AppendEncode(ix.encBuf[:0])
	ix.recs = append(ix.recs, ix.file.Append(ix.encBuf))
	ix.ids = append(ix.ids, id)
	ix.cents = append(ix.cents, c)
}

// Centroid returns the extended centroid of the i-th indexed set in
// insertion order. The returned slice is owned by the index.
func (ix *Index) Centroid(i int) []float64 { return ix.cents[i] }

// fetch reads the vector set of the object with internal index i from the
// paged file (charging the tracker) and returns its vectors.
func (ix *Index) fetch(i int) [][]float64 {
	if ix.store != nil {
		return ix.store.At(i).Rows()
	}
	rec := ix.file.Get(ix.recs[i])
	var vs vectorset.Set
	if _, err := vs.ReadFrom(bytes.NewReader(rec)); err != nil {
		panic(fmt.Sprintf("filter: corrupt vector set record %d: %v", i, err))
	}
	return vs.Vectors
}

// fetchFlat decodes the record of internal index i into ws's staging
// buffer: the paged file hands back its stored bytes zero-copy and the
// decode targets ws.Floats, so a steady-state fetch performs no
// allocation. The returned Flat is valid until the workspace's next
// fetchFlat.
func (ix *Index) fetchFlat(ws *dist.Workspace, i int) vectorset.Flat {
	if ix.store != nil {
		// The store serves the set in place (on the mmap path, straight
		// from the page cache): no decode, no copy, no allocation.
		return ix.store.At(i)
	}
	rec := ix.file.Get(ix.recs[i])
	card, dim, err := vectorset.FlatHeader(rec)
	if err != nil {
		panic(fmt.Sprintf("filter: corrupt vector set record %d: %v", i, err))
	}
	f, err := vectorset.DecodeFlatInto(ws.Floats(card*dim), rec)
	if err != nil {
		panic(fmt.Sprintf("filter: corrupt vector set record %d: %v", i, err))
	}
	return f
}

// qview is a query prepared once per query call: the flat face feeds the
// specialized kernel when the index runs FastL2, the row face feeds the
// generic Ground/Weight path otherwise.
type qview struct {
	rows [][]float64
	flat vectorset.Flat
	fast bool
}

func (ix *Index) newQuery(rows [][]float64) (qview, []float64) {
	if ix.fastL2 {
		f := vectorset.FlatFromRows(rows)
		return qview{flat: f, fast: true}, f.Centroid(ix.cfg.K, ix.omega)
	}
	return qview{rows: rows}, vectorset.New(rows).Centroid(ix.cfg.K, ix.omega)
}

func (ix *Index) newQueryFlat(f vectorset.Flat) (qview, []float64) {
	if ix.fastL2 {
		return qview{flat: f, fast: true}, f.Centroid(ix.cfg.K, ix.omega)
	}
	return qview{rows: f.Rows()}, f.Centroid(ix.cfg.K, ix.omega)
}

// tally counts one loop's refinements and full matchings; the loop
// publishes it to the index's shared counters once, not per candidate.
type tally struct{ refined, solved int64 }

func (ix *Index) publish(t tally) {
	ix.refinements.Add(t.refined)
	ix.matchings.Add(t.solved)
}

// exact refines candidate i through the caller's matching workspace
// against bound, the threshold the caller will compare the distance with:
// the result is +Inf when the kernel proved the distance greater than
// bound without running the matching (dist.MatchingDistanceFlatWithin).
// The generic Ground/Weight path (an index without FastL2: tests, the
// root voxset.Database) stays unbounded and always solves. The paged file
// is safe for concurrent exact calls; each worker must hold its own
// workspace and tally.
func (ix *Index) exact(ws *dist.Workspace, q qview, i int, bound float64, t *tally) float64 {
	t.refined++
	if !q.fast {
		t.solved++
		return ws.MatchingDistance(q.rows, ix.fetch(i), ix.cfg.Ground, ix.cfg.Weight)
	}
	d, within := ws.MatchingDistanceFlatWithin(q.flat, ix.fetchFlat(ws, i), ix.omega, bound)
	if within {
		t.solved++
	}
	return d
}

// Range returns all objects whose minimal matching distance to q is at
// most eps, in (distance, id) order.
func (ix *Index) Range(q [][]float64, eps float64) []index.Neighbor {
	qv, cq := ix.newQuery(q)
	return ix.rangeQuery(qv, cq, eps, nil)
}

// RangeFlat is Range for a query already in the flat layout, skipping
// the per-call conversion (the vsdb query path).
func (ix *Index) RangeFlat(q vectorset.Flat, eps float64) []index.Neighbor {
	return ix.RangeFlatLive(q, eps, nil)
}

// RangeFlatLive is RangeFlat over the objects whose id satisfies live
// (all of them when live is nil): a dead candidate is dropped before
// refinement, so it costs no exact evaluation.
func (ix *Index) RangeFlatLive(q vectorset.Flat, eps float64, live func(id int) bool) []index.Neighbor {
	qv, cq := ix.newQueryFlat(q)
	return ix.rangeQuery(qv, cq, eps, live)
}

func (ix *Index) rangeQuery(q qview, cq []float64, eps float64, live func(id int) bool) []index.Neighbor {
	// Lemma 2: dist_mm ≤ eps requires ‖C(X)−C(q)‖ ≤ eps/k.
	cands := ix.tree.Range(cq, eps/float64(ix.cfg.K))
	if live != nil {
		kept := cands[:0]
		for _, c := range cands {
			if live(ix.ids[c.ID]) {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	dists := make([]float64, len(cands))
	workers := min(ix.workers, len(cands))
	parallel.Run(workers, func(w int) {
		ws := dist.GetWorkspace()
		defer dist.PutWorkspace(ws)
		var t tally
		lo, hi := parallel.Chunk(len(cands), max(workers, 1), w)
		for i := lo; i < hi; i++ {
			dists[i] = ix.exact(ws, q, cands[i].ID, eps, &t)
		}
		ix.publish(t)
	})
	var out []index.Neighbor
	for i, c := range cands {
		if dists[i] <= eps {
			out = append(out, index.Neighbor{ID: ix.ids[c.ID], Dist: dists[i]})
		}
	}
	index.SortNeighbors(out)
	return out
}

// worseNeighbor reports whether a ranks strictly after b under the
// deterministic (distance, id) result order. It is the single comparison
// used by both the sequential and the parallel k-nn merge, which is what
// makes their outputs identical.
func worseNeighbor(a, b index.Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// resultHeap is a max-heap of the current k best exact neighbors: the
// root is the worst retained neighbor under the (distance, id) order.
type resultHeap []index.Neighbor

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return worseNeighbor(h[i], h[j]) }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(index.Neighbor)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// offer merges one refined neighbor into the heap under the k budget.
func (h *resultHeap) offer(nb index.Neighbor, k int) {
	if len(*h) < k {
		heap.Push(h, nb)
	} else if worseNeighbor((*h)[0], nb) {
		(*h)[0] = nb
		heap.Fix(h, 0)
	}
}

// KNN returns the k nearest neighbors of q under the minimal matching
// distance using the optimal multi-step algorithm (Seidl & Kriegel):
// candidates are refined in filter-distance order and the walk stops as
// soon as the next filter distance exceeds the current k-th exact
// distance. With more than one worker, ranking batches are refined
// concurrently (see knnParallel); results are identical either way.
func (ix *Index) KNN(q [][]float64, k int) []index.Neighbor {
	if k <= 0 || ix.Len() == 0 {
		return nil
	}
	qv, cq := ix.newQuery(q)
	return ix.knn(qv, cq, k, nil)
}

// KNNFlat is KNN for a query already in the flat layout, skipping the
// per-call conversion (the vsdb query path).
func (ix *Index) KNNFlat(q vectorset.Flat, k int) []index.Neighbor {
	return ix.KNNFlatLive(q, k, nil)
}

// KNNFlatLive is KNNFlat over the objects whose id satisfies live (all
// of them when live is nil): the ranking skips a dead candidate before
// refining it, so it costs no exact evaluation and takes no place among
// the k. The stop test is KNNFlat's, hence the answer is exactly the k
// nearest live objects — what an index built without the dead ones
// would return.
func (ix *Index) KNNFlatLive(q vectorset.Flat, k int, live func(id int) bool) []index.Neighbor {
	if k <= 0 || ix.Len() == 0 {
		return nil
	}
	qv, cq := ix.newQueryFlat(q)
	return ix.knn(qv, cq, k, live)
}

func (ix *Index) knn(q qview, cq []float64, k int, live func(id int) bool) []index.Neighbor {
	var results resultHeap
	if ix.workers > 1 {
		results = ix.knnParallel(cq, q, k, live)
	} else {
		results = ix.knnSequential(cq, q, k, live)
	}
	out := make([]index.Neighbor, len(results))
	copy(out, results)
	index.SortNeighbors(out)
	return out
}

func (ix *Index) knnSequential(cq []float64, q qview, k int, live func(id int) bool) resultHeap {
	ws := dist.GetWorkspace()
	defer dist.PutWorkspace(ws)
	ranking := ix.tree.NewRanking(cq)
	var results resultHeap
	var t tally
	kth := math.Inf(1) // the k-th exact distance once k candidates are in
	for {
		cand, ok := ranking.Next()
		if !ok {
			break
		}
		if cand.Dist*float64(ix.cfg.K) > kth {
			break // no unseen object can beat the current k-th distance
		}
		if live != nil && !live(ix.ids[cand.ID]) {
			continue
		}
		// A distance above kth comes back +Inf, which offer turns down
		// exactly as it would the distance itself.
		d := ix.exact(ws, q, cand.ID, kth, &t)
		results.offer(index.Neighbor{ID: ix.ids[cand.ID], Dist: d}, k)
		if len(results) == k {
			kth = results[0].Dist
		}
	}
	ix.publish(t)
	return results
}

// knnBatchPerWorker sizes the ranking batches handed to the worker pool:
// workers × this many candidates per round. Larger batches amortize the
// fork/join cost but can overshoot the sequential stopping point by more.
const knnBatchPerWorker = 4

// knnParallel is the concurrent variant of the optimal multi-step k-nn.
// It gathers candidates from the ranking in batches, refines each batch
// on the worker pool, and merges refined distances into the result heap
// in ranking order with the same (distance, id) rule as the sequential
// walk.
//
// Correctness: the batch boundary only ever extends the candidate prefix
// the sequential algorithm would refine (the k-th distance used in the
// stop test monotonically decreases, and the filter distance lower-bounds
// the exact distance), so the refined set is a superset of the sequential
// one; surplus candidates lose against the final k-th distance and cannot
// enter the heap. Workers prune individually against a shared atomic
// threshold — the k-th exact distance after the last merged batch — and
// mark skipped candidates +Inf, which is likewise sound because a filter
// distance above the current k-th exact distance can never be a result;
// they pass the same threshold down to the kernel, whose assignment bound
// prunes under the same rule with the same mark.
func (ix *Index) knnParallel(cq []float64, q qview, k int, live func(id int) bool) resultHeap {
	ranking := ix.tree.NewRanking(cq)
	var results resultHeap

	var threshold atomic.Uint64 // Float64bits of the current k-th distance
	threshold.Store(math.Float64bits(math.Inf(1)))

	batchCap := ix.workers * knnBatchPerWorker
	cands := make([]index.Neighbor, 0, batchCap)
	dists := make([]float64, batchCap)
	tallies := make([]tally, ix.workers) // one per worker, published once
	for {
		cands = cands[:0]
		done := false
		for len(cands) < batchCap {
			cand, ok := ranking.Next()
			if !ok {
				done = true
				break
			}
			filterDist := cand.Dist * float64(ix.cfg.K)
			if len(results) == k && filterDist > results[0].Dist {
				done = true // the ranking is sorted: every later candidate fails too
				break
			}
			if live != nil && !live(ix.ids[cand.ID]) {
				continue
			}
			cands = append(cands, cand)
		}
		if len(cands) > 0 {
			workers := min(ix.workers, len(cands))
			parallel.Run(workers, func(w int) {
				ws := dist.GetWorkspace()
				defer dist.PutWorkspace(ws)
				t := tallies[w]
				lo, hi := parallel.Chunk(len(cands), workers, w)
				for i := lo; i < hi; i++ {
					kth := math.Float64frombits(threshold.Load())
					if cands[i].Dist*float64(ix.cfg.K) > kth {
						dists[i] = math.Inf(1) // pruned: cannot beat the k-th distance
						continue
					}
					// The kernel prunes against the same threshold, with
					// the same +Inf mark.
					dists[i] = ix.exact(ws, q, cands[i].ID, kth, &t)
				}
				tallies[w] = t
			})
			for i, cand := range cands {
				if math.IsInf(dists[i], 1) {
					continue
				}
				results.offer(index.Neighbor{ID: ix.ids[cand.ID], Dist: dists[i]}, k)
			}
			if len(results) == k {
				threshold.Store(math.Float64bits(results[0].Dist))
			}
		}
		if done {
			break
		}
	}
	for _, t := range tallies {
		ix.publish(t)
	}
	return results
}
