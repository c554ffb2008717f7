// Package filter implements the paper's filter/refinement query pipeline
// for vector-set data (§4.3): k·‖C(X)−C(q)‖₂ over the 6-dimensional
// extended centroids lower-bounds the minimal matching distance (Lemma
// 2), so
//
//   - ε-range queries refine only objects whose centroid lies within
//     ε/k of the query centroid (Korn et al. [19]), and
//   - k-nn queries use the optimal multi-step algorithm of Seidl &
//     Kriegel [29]: rank candidates by filter distance, refine with the
//     exact matching distance, stop when the next filter distance exceeds
//     the current k-th exact distance.
//
// An index has one of two shapes, fixed by its constructor, and each shape
// has its own way of ranking centroids behind one seam (rank.go):
//
//   - New + Add is the paper's structure: centroids in a dynamic X-tree,
//     ranked best-first; sets in a simulated paged file whose reads charge
//     the storage tracker exactly like the paper's Table 2 setup. Under
//     §5.4's disk model (8 ms per page) the tree wins, because a query
//     reads only the node pages its frontier reaches. Tests, the root
//     voxset.Database and the Table 2 reproduction use it.
//   - NewBulkStore is what every server runs: an immutable index over a
//     caller-owned SetStore (a memory-mapped snapshot, vsdb's heap base).
//     Sets are refined in place; centroids are ranked from a copy of the
//     store's column in blocks of 64 near centroids, each with a bounding
//     box, which the first query lays out — no tree is built. A query
//     reads the box table and only the blocks whose box can hold one of
//     its first candidates or lies within its reach; in memory that is
//     several times cheaper than walking the tree, at any size measured,
//     and the tracker is charged the pages of the boxes and of the rows
//     read, so the paper's accounting shows what it costs on disk.
//
// Both rankers emit the same distances bit for bit, so the loops refine
// the same candidates and return the same answers. The loops pull
// candidates with the largest centroid distance that can still matter
// (the k-th exact distance ÷ k), which is what lets the blocked ranker
// read and order only the blocks and positions within it instead of all
// n.
//
// The k-nn loop is one function over candidate streams (stream.go): a
// Cursor is an index's stream — Next pulls the centroid ranking, Refine
// runs the exact tests below — and MultiStep refines any number of streams
// in one global (bound, stream, position) order against one k-th
// distance. KNN is MultiStep over the index's own cursor; vsdb adds its
// delta memtable as a second stream, and the sharded coordinator one
// cursor per shard, so every shape refines what one index over the union
// would.
//
// Every query runs on the caller's goroutine: the k-nn loop is sequential
// by construction (it refines in ranking order and stops at the first
// bound past the k-th distance), and concurrency comes from concurrent
// callers, which an index serves safely (DESIGN.md §6).
//
// Every refinement loop holds a threshold (the current k-th exact
// distance, ε), and each candidate the centroid ranking lets through meets
// two more exact tests against it before a solve (DESIGN.md §6): on a
// store-backed FastL2 index, the sorted per-axis projection bound over
// stored 16-bit signatures, one code space per centroid block, tested in
// integers (signature.go), which settles most candidates without
// fetching the set; then the matching kernel's O(k²) assignment lower
// bound, which settles most of the rest without the O(k³) solve.
// SignaturePruned counts the first, Refinements the candidates handed to
// the kernel, Matchings the solves run.
package filter

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/xtree"
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
	// Tracker is charged for centroid ranking — X-tree node accesses, or
	// the pages of the block boxes and of the centroid rows a query reads —
	// and for vector-set record reads (optional).
	Tracker *storage.Tracker
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
	cfg    Config
	omega  []float64
	ranker ranker // treeRanker{tree} after New, blocks after NewBulkStore
	ids    []int  // object id per insertion order

	// A New index grows by Add: centroids go into the dynamic X-tree, sets
	// into the simulated paged file.
	tree  *xtree.Tree
	file  *storage.PagedFile
	recs  []int       // record id per insertion order
	cents [][]float64 // extended centroid per insertion order

	// A NewBulkStore index is immutable: sets are refined in place from
	// store, centroids ranked from a blocked copy of its column that the
	// first query builds.
	store   SetStore
	col     []float64
	blocks  *blockRanker
	sigs    []sigBlock // signature code spaces of a store-backed FastL2 index, one per block, else nil
	sigPool *sync.Pool // *sigQuery, beside sigs

	fastL2 bool
	encBuf []byte // reused serialization buffer (Add is caller-serialized)

	sigPruned   atomic.Int64 // candidates the signature bound settled unfetched
	refinements atomic.Int64 // candidates fetched and handed to the kernel
	matchings   atomic.Int64 // of those, distances computed in full
}

// New returns an empty filter index that grows by Add and ranks through
// a dynamic X-tree — the paper's access path (Table 2, the root
// voxset.Database, tests). Serving layers build with NewBulkStore.
func New(cfg Config) *Index {
	ix := newIndex(cfg)
	ix.tree = xtree.New(ix.cfg.Dim, xtree.Config{Tracker: ix.cfg.Tracker, PageSize: ix.cfg.PageSize})
	ix.ranker = treeRanker{ix.tree}
	ix.file = storage.NewPagedFile(ix.cfg.PageSize, ix.cfg.Tracker)
	return ix
}

// newIndex resolves cfg's defaults into an index with no ranker yet.
func newIndex(cfg Config) *Index {
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
		cfg:    cfg,
		omega:  omega,
		fastL2: cfg.FastL2,
	}
}

// Len returns the number of indexed vector sets.
func (ix *Index) Len() int { return len(ix.ids) }

// Refinements returns the cumulative number of candidates queries
// fetched and handed to the matching kernel (the filter's selectivity
// measure, the paper's Table 2 quantity: the set's page is read whether
// or not the kernel then runs the matching to completion). Candidates the
// signature bound settled are not among them.
func (ix *Index) Refinements() int64 { return ix.refinements.Load() }

// SignaturePruned returns the cumulative number of candidates that passed
// the centroid bound but were proven beyond the threshold by the sorted
// per-axis projection bound, without fetching their set.
func (ix *Index) SignaturePruned() int64 { return ix.sigPruned.Load() }

// Matchings returns how many of those refinements computed the matching
// distance in full — the Hungarian solves run; the rest were settled by
// the kernel's assignment lower bound against the loop's threshold.
func (ix *Index) Matchings() int64 { return ix.matchings.Load() }

// ResetRefinements zeroes the signature-pruned, refinement and matching
// counters.
func (ix *Index) ResetRefinements() {
	ix.sigPruned.Store(0)
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
// insertion order. The returned slice is owned by the index (for a
// store-backed one it is a window of the store's column).
func (ix *Index) Centroid(i int) []float64 {
	if ix.store != nil {
		d := ix.cfg.Dim
		return ix.col[i*d : (i+1)*d : (i+1)*d]
	}
	return ix.cents[i]
}

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
// generic Ground/Weight path otherwise; sig, the query's exact signature
// and its quantizations in pooled scratch, feeds the signature stage of an
// index that has one. The loop that prepared it releases it.
type qview struct {
	rows [][]float64
	flat vectorset.Flat
	fast bool
	sig  *sigQuery
}

func (ix *Index) newQuery(rows [][]float64) (qview, []float64) {
	if ix.fastL2 {
		return ix.newQueryFlat(vectorset.FlatFromRows(rows))
	}
	return qview{rows: rows}, vectorset.New(rows).Centroid(ix.cfg.K, ix.omega)
}

func (ix *Index) newQueryFlat(f vectorset.Flat) (qview, []float64) {
	if !ix.fastL2 {
		return qview{rows: f.Rows()}, f.Centroid(ix.cfg.K, ix.omega)
	}
	q := qview{flat: f, fast: true}
	if ix.sigs != nil {
		q.sig = ix.newSigQuery(f)
	}
	return q, f.Centroid(ix.cfg.K, ix.omega)
}

func (q qview) release() {
	if q.sig != nil {
		q.sig.release()
	}
}

// tally counts one loop's signature prunes, refinements and full
// matchings; the loop publishes it to the index's shared counters once,
// not per candidate.
type tally struct{ sigPruned, refined, solved int64 }

func (ix *Index) publish(t tally) {
	ix.sigPruned.Add(t.sigPruned)
	ix.refinements.Add(t.refined)
	ix.matchings.Add(t.solved)
}

// exact refines candidate i through the caller's matching workspace
// against bound, the threshold the caller will compare the distance with:
// the result is +Inf when the signature stage or the kernel proved the
// distance greater than bound without running the matching — the first
// before the set is even fetched (signature.go), the second on the
// cost matrix (dist.MatchingDistanceFlatWithin). The generic Ground/Weight
// path (an index without FastL2: tests, the root voxset.Database) stays
// unbounded and always solves. The paged file and the signature blocks
// are safe for concurrent exact calls; each caller must hold its own
// workspace and tally.
func (ix *Index) exact(ws *dist.Workspace, q qview, i int, bound float64, t *tally) float64 {
	// Until the loop holds a finite threshold nothing can be pruned, and
	// the block's codes need not be built yet.
	if q.sig != nil && bound < math.Inf(1) && ix.sigExceeds(q.sig, i, bound) {
		t.sigPruned++
		return math.Inf(1)
	}
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
	out, _ := ix.rangeQuery(context.Background(), qv, cq, eps, nil) // a background context never ends
	return out
}

// RangeFlat is Range for a query already in the flat layout, skipping
// the per-call conversion (the vsdb query path).
func (ix *Index) RangeFlat(q vectorset.Flat, eps float64) []index.Neighbor {
	out, _ := ix.RangeFlatLive(context.Background(), q, eps, nil) // a background context never ends
	return out
}

// RangeFlatLive is RangeFlat over the objects whose id satisfies live
// (all of them when live is nil): a dead candidate is dropped before
// refinement, so it costs no exact evaluation. ctx is checked once per
// ctxEvery candidates; once it is done the call returns ctx.Err().
func (ix *Index) RangeFlatLive(ctx context.Context, q vectorset.Flat, eps float64, live func(id int) bool) ([]index.Neighbor, error) {
	qv, cq := ix.newQueryFlat(q)
	return ix.rangeQuery(ctx, qv, cq, eps, live)
}

// beyond reports whether a centroid distance proves its object farther
// than threshold (Lemma 2: dist_mm ≥ K·‖C(X)−C(q)‖) — the range loop's
// prune test, and MultiStep's stop test on a Cursor's bound K·‖C(X)−C(q)‖.
// reach is its inverse, the centroid distance up to which a ranking must
// not skip anything.
func (ix *Index) beyond(centroidDist, threshold float64) bool {
	return vectorset.BoundExceeds(centroidDist*float64(ix.cfg.K), threshold)
}

func (ix *Index) reach(threshold float64) float64 {
	return threshold / float64(ix.cfg.K) * reachSlack
}

// reachSlack widens reach so that no rounding — in the division above, in
// a ranker's reach², in beyond's own product — can make a ranking leave
// out a position that beyond would still accept. A ranking that hands out
// a few positions more costs an ordering step, never a refinement: beyond
// decides.
const reachSlack = 1 + 0x1p-40

func (ix *Index) rangeQuery(ctx context.Context, q qview, cq []float64, eps float64, live func(id int) bool) ([]index.Neighbor, error) {
	defer q.release()
	ws := dist.GetWorkspace()
	defer dist.PutWorkspace(ws)
	var t tally
	defer func() { ix.publish(t) }() // what a cancelled loop refined counts too
	var out []index.Neighbor
	// dist_mm ≤ eps requires ‖C(X)−C(q)‖ ≤ eps/K (Korn et al. [19]); the
	// ranker over-collects by a rounding margin and beyond decides.
	for n, c := range ix.ranker.within(cq, ix.reach(eps)) {
		if (n+1)%ctxEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ix.beyond(c.Dist, eps) || (live != nil && !live(ix.ids[c.ID])) {
			continue
		}
		if d := ix.exact(ws, q, c.ID, eps, &t); d <= eps {
			out = append(out, index.Neighbor{ID: ix.ids[c.ID], Dist: d})
		}
	}
	index.SortNeighbors(out)
	return out, nil
}

// worseNeighbor reports whether a ranks strictly after b under the
// deterministic (distance, id) result order.
func worseNeighbor(a, b index.Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// resultHeap is a max-heap of the current k best exact neighbors: the
// root is the worst retained neighbor under the (distance, id) order. It
// sifts its own slice — container/heap would box every neighbor pushed.
type resultHeap []index.Neighbor

// offer merges one refined neighbor into the heap under the k budget.
func (h *resultHeap) offer(nb index.Neighbor, k int) {
	s := *h
	if len(s) < k {
		s = append(s, nb)
		*h = s
		for j := len(s) - 1; j > 0; {
			p := (j - 1) / 2
			if !worseNeighbor(s[j], s[p]) {
				break
			}
			s[p], s[j] = s[j], s[p]
			j = p
		}
		return
	}
	if !worseNeighbor(s[0], nb) {
		return
	}
	s[0] = nb
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && worseNeighbor(s[c+1], s[c]) {
			c++
		}
		if !worseNeighbor(s[c], s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
}

// KNN returns the k nearest neighbors of q under the minimal matching
// distance using the optimal multi-step algorithm (Seidl & Kriegel):
// candidates are refined in filter-distance order and the walk stops as
// soon as the next filter distance exceeds the current k-th exact
// distance (MultiStep over the index's one Cursor).
func (ix *Index) KNN(q [][]float64, k int) []index.Neighbor {
	if k <= 0 || ix.Len() == 0 {
		return nil
	}
	qv, cq := ix.newQuery(q)
	return ix.knn(ix.cursor(qv, cq, k, nil), k)
}

// KNNFlat is KNN for a query already in the flat layout, skipping the
// per-call conversion.
func (ix *Index) KNNFlat(q vectorset.Flat, k int) []index.Neighbor {
	if k <= 0 || ix.Len() == 0 {
		return nil
	}
	return ix.knn(ix.Cursor(q, k, nil), k)
}

func (ix *Index) knn(c *Cursor, k int) []index.Neighbor {
	defer c.Close()
	out, _ := MultiStep(context.Background(), []Stream{c}, min(k, ix.Len())) // a background context never ends
	return out
}
