package filter

import (
	"math"
	"slices"
	"sync"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/xtree"
	"github.com/voxset/voxset/internal/storage"
)

// ranker is the seam between the query loops and whatever orders the
// extended centroids. An index has exactly one, fixed by its constructor:
// New ranks through the dynamic X-tree (treeRanker), NewBulkStore through
// one pass over the store's contiguous centroid column (flatRanker).
// Positions are insertion-order indexes into Index.ids.
type ranker interface {
	// rank starts a ranking of every indexed position by its centroid's
	// distance to cq. first is how many candidates the caller expects to
	// pull before it holds a bound (its k).
	rank(cq []float64, first int) ranking
	// within returns, in no particular order, every position whose
	// centroid lies within reach of cq (same rounding caveat as next).
	within(cq []float64, reach float64) []index.Neighbor
}

// ranking is one query's walk over the centroids in ascending distance.
type ranking interface {
	// next returns the next position, strictly ascending in distance.
	// reach is the largest centroid distance that can still matter to the
	// caller (+Inf while it has no bound) and must not grow from one call
	// to the next; ok is false once no remaining position lies within it.
	// Positions beyond reach may still be returned — the caller keeps its
	// own stop test — but none within reach is ever skipped, give or take
	// the rounding of reach², which callers absorb by widening reach
	// (Index.reach).
	next(reach float64) (nb index.Neighbor, ok bool)
	// release returns the ranking's scratch; the ranking is dead after it.
	release()
}

// treeRanker ranks by best-first traversal of the X-tree (Hjaltason &
// Samet), the paper's access path: it reads only the node pages the
// frontier reaches, which is what §5.4's disk cost model rewards.
type treeRanker struct{ tree *xtree.Tree }

func (t treeRanker) rank(cq []float64, _ int) ranking {
	return treeRanking{t.tree.NewRanking(cq)}
}

func (t treeRanker) within(cq []float64, reach float64) []index.Neighbor {
	return t.tree.Range(cq, reach)
}

// treeRanking ignores reach: best-first is already lazy.
type treeRanking struct{ r *xtree.Ranking }

func (t treeRanking) next(float64) (index.Neighbor, bool) { return t.r.Next() }
func (treeRanking) release()                              {}

// flatRanker ranks from the centroid column itself — n·dim float64s in
// base order, aliased from the store (the mapped snapshot region, the heap
// base's block), never copied. In memory a sequential pass over 48 bytes
// per object beats chasing node pointers and pushing most of the tree's
// points through a heap to emit a few hundred (EXPERIMENTS.md "One pass,
// not a tree"); under the paper's disk model it costs more pages, and the
// tracker is charged for all of them.
//
// The column stays float64: the squared distance must equal the X-tree's
// bit for bit (Σ (c[j]−q[j])², dimensions in order, one root on emit) so
// both rankers stop the multi-step loop on the same candidate. A float32
// copy would halve the pass and break the lower bound unless every
// comparison were widened by its rounding error.
type flatRanker struct {
	cents   []float64
	tracker *storage.Tracker
	pages   int       // one pass over the column under the §5.4 page model
	pool    sync.Pool // *flatRanking; the index owns it, a new base gets a new one
}

func newFlatRanker(cents []float64, n, pageSize int, tracker *storage.Tracker) *flatRanker {
	r := &flatRanker{cents: cents, tracker: tracker}
	r.pages = (len(cents)*8 + pageSize - 1) / pageSize
	r.pool.New = func() any { return &flatRanking{r: r, d2: make([]float64, n)} }
	return r
}

// pass charges one sequential read of the column and returns scratch whose
// d2 holds every position's squared distance to cq.
func (r *flatRanker) pass(cq []float64) *flatRanking {
	if r.tracker != nil {
		r.tracker.AddPageAccess(r.pages)
		r.tracker.AddBytes(len(r.cents) * 8)
	}
	rk := r.pool.Get().(*flatRanking)
	squaredDistances(rk.d2, r.cents, cq)
	return rk
}

func (r *flatRanker) rank(cq []float64, first int) ranking {
	rk := r.pass(cq)
	rk.last, rk.bucketed = ranked{-1, -1}, false
	rk.chunk = min(max(minChunk, chunkPerResult*first), len(rk.d2))
	rk.nearest()
	return rk
}

func (r *flatRanker) within(cq []float64, reach float64) []index.Neighbor {
	rk := r.pass(cq)
	defer rk.release()
	r2 := reach * reach
	var out []index.Neighbor
	for i, d := range rk.d2 {
		if d <= r2 { // false for a NaN distance: never a candidate
			out = append(out, index.Neighbor{ID: i, Dist: math.Sqrt(d)})
		}
	}
	return out
}

// squaredDistances writes ‖cents[i]−q‖² into d2[i], summing the dimensions
// in order exactly as the X-tree's MINDIST does for a point rectangle and
// as vectorset.CentroidLowerBound does for a delta entry.
func squaredDistances(d2, cents, q []float64) {
	if len(q) == 6 { // cover features: the served dimension, unrolled
		q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
		cents = cents[:len(d2)*6]
		for i := range d2 {
			c := cents[i*6 : i*6+6 : i*6+6]
			e0, e1, e2 := c[0]-q0, c[1]-q1, c[2]-q2
			e3, e4, e5 := c[3]-q3, c[4]-q4, c[5]-q5
			s := e0 * e0
			s += e1 * e1
			s += e2 * e2
			s += e3 * e3
			s += e4 * e4
			s += e5 * e5
			d2[i] = s
		}
		return
	}
	dim := len(q)
	for i := range d2 {
		s := 0.0
		for j, c := range cents[i*dim : (i+1)*dim] {
			e := c - q[j]
			s += e * e
		}
		d2[i] = s
	}
}

const (
	// The first chunk is ordered before any bound exists, so it should be
	// just large enough to hold the caller's share of the k nearest live
	// objects (first: k for one index, about k/N for each of N merged
	// shards): whatever it holds beyond them was heap work for nothing,
	// whatever it lacks costs a second selection pass. Measured on 10 k
	// jittered cadgen objects at k = 10, a whole query costs 168 µs at
	// 32–40, 176 at 64, 200 at 128; over 4 shards of 2 500, a chunk of 12
	// per shard instead of 40 cut a whole query by 18 %.
	minChunk       = 8
	chunkPerResult = 4
	// Collected candidates are bucketed by squared distance, about this
	// many to a bucket; a bucket is sorted when the walk reaches it.
	perBucket = 4
)

// flatRanking emits positions in (d², position) order without ordering
// more of them than the caller's shrinking reach lets through:
//
//  1. a bounded max-heap keeps the chunk nearest positions, which are
//     emitted sorted — enough for the loop to find its first k exact
//     distances and hence a finite reach;
//  2. the first pull with a finite reach collects, in one compare-only
//     scan of d2, every un-emitted position within it. reach only
//     shrinks, so nothing outside that set can ever be asked for;
//  3. the collected set is scattered into buckets by d² and each bucket
//     is sorted only when the walk gets to it — the loop usually stops
//     about halfway through.
//
// While reach is still +Inf after a chunk (fewer than k live objects in
// it), step 1 repeats with a doubled chunk over what is left.
//
// "Un-emitted" is a comparison, not a mark: emission is strictly
// ascending in (d², position), so a position is un-emitted exactly when
// its key is greater than the last one emitted. A NaN distance (a NaN
// stored or query centroid) compares false both ways and is never
// emitted; ±Inf distances rank last.
type flatRanking struct {
	r  *flatRanker
	d2 []float64 // squared distance per position, 8·n bytes

	run    []ranked // emitted from run[cur]; run[:sorted] is in order
	cur    int
	sorted int
	chunk  int    // size of the next bounded selection
	last   ranked // the last position emitted; {-1, -1} before any

	bucketed bool
	cand     []ranked // collect's staging, scattered into run
	start    []int32  // bucket b is run[start[b]:start[b+1]]
	bucket   int      // next bucket to sort
}

// ranked is a position with its squared distance, the ranking's sort key.
type ranked struct {
	d2  float64
	pos int32
}

func (a ranked) less(b ranked) bool {
	return a.d2 < b.d2 || (a.d2 == b.d2 && a.pos < b.pos)
}

func compareRanked(a, b ranked) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

func (rk *flatRanking) release() { rk.r.pool.Put(rk) }

func (rk *flatRanking) next(reach float64) (index.Neighbor, bool) {
	for rk.cur == rk.sorted {
		if !rk.advance(reach) {
			return index.Neighbor{}, false
		}
	}
	rk.last = rk.run[rk.cur]
	rk.cur++
	return index.Neighbor{ID: int(rk.last.pos), Dist: math.Sqrt(rk.last.d2)}, true
}

// advance makes more of run emittable; false means the ranking is over.
func (rk *flatRanking) advance(reach float64) bool {
	if !rk.bucketed {
		if r2 := reach * reach; r2 < math.Inf(1) {
			rk.collect(r2)
		} else {
			rk.chunk = min(2*rk.chunk, len(rk.d2))
			rk.nearest()
			return rk.sorted > 0
		}
	}
	for rk.bucket+1 < len(rk.start) {
		lo, hi := rk.start[rk.bucket], rk.start[rk.bucket+1]
		rk.bucket++
		if lo < hi {
			slices.SortFunc(rk.run[lo:hi], compareRanked)
			rk.sorted = int(hi)
			return true
		}
	}
	return false
}

// nearest selects the chunk nearest un-emitted positions into run, sorted.
func (rk *flatRanking) nearest() {
	last := rk.last
	h := rk.run[:0] // max-heap under less
	i := 0
	for ; i < len(rk.d2) && len(h) < rk.chunk; i++ {
		it := ranked{rk.d2[i], int32(i)}
		if !last.less(it) {
			continue
		}
		h = append(h, it)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if !h[p].less(h[j]) {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
	}
	if i < len(rk.d2) { // the heap is full: only a closer position displaces its root
		worst := h[0].d2
		for ; i < len(rk.d2); i++ {
			// An equal d² at this later position ranks after the root.
			if it := (ranked{rk.d2[i], int32(i)}); it.d2 < worst && last.less(it) {
				h[0] = it
				siftDown(h)
				worst = h[0].d2
			}
		}
	}
	for end := len(h) - 1; end > 0; end-- { // heap sort: ascending in place
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end])
	}
	rk.run, rk.cur, rk.sorted = h, 0, len(h)
}

// siftDown restores the max-heap under less after its root was replaced.
// (A generic sift shared with resultHeap was tried: the indirect
// comparator call costs 8 % of a whole ranking.)
func siftDown(h []ranked) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c].less(h[c+1]) {
			c++
		}
		if !h[i].less(h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// collect gathers every un-emitted position with d² ≤ r2 into run,
// bucketed by d² (a counting sort on the bucket number).
func (rk *flatRanking) collect(r2 float64) {
	last := rk.last
	cand := rk.cand[:0]
	for i, d := range rk.d2 {
		if it := (ranked{d, int32(i)}); d <= r2 && last.less(it) {
			cand = append(cand, it)
		}
	}
	rk.cand = cand

	lo := max(last.d2, 0)
	buckets := max(len(cand)/perBucket, 1)
	scale := float64(buckets) / (r2 - lo)
	if !(scale < math.Inf(1)) { // r2 == lo: everything left ties the last emitted distance
		buckets, scale = 1, 0
	}
	bucketOf := func(it ranked) int { return min(int((it.d2-lo)*scale), buckets-1) }

	// at[b+1] counts up from bucket b's first slot to its last while the
	// scatter runs, which leaves at[b] = where bucket b begins.
	at := append(rk.start[:0], make([]int32, buckets+2)...)
	for _, it := range cand {
		at[bucketOf(it)+2]++
	}
	for b := 2; b < len(at); b++ {
		at[b] += at[b-1]
	}
	run := append(rk.run[:0], cand...)
	for _, it := range cand {
		b := bucketOf(it) + 1
		run[at[b]] = it
		at[b]++
	}
	rk.run, rk.start = run, at[:buckets+1]
	rk.bucketed, rk.bucket, rk.cur, rk.sorted = true, 0, 0, 0
}
