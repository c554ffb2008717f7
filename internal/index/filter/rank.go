package filter

import (
	"math"
	"slices"
	"sync"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/xtree"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// ranker is the seam between the query loop and whatever orders the
// extended centroids. An index has exactly one, fixed by its constructor:
// New ranks through the dynamic X-tree (treeRanker), NewBulkStore through
// the store's centroid column in blocks (blockRanker).
// Positions index Index.ids: insertion order after New, the store's
// order after NewBulkStore.
type ranker interface {
	// rank starts a ranking of every indexed position by its centroid's
	// distance to cq. first is how many candidates the caller expects to
	// pull before it holds a bound (a k-nn's k); a caller whose first pull
	// already has a finite reach (a range) never uses it.
	rank(cq []float64, first int) ranking
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
	// (Index.reach). A ranking whose first pull has a finite reach (a
	// range's) reads only what lies within it.
	next(reach float64) (nb index.Neighbor, ok bool)
	// release returns the ranking's scratch; the ranking is dead after it.
	release()
}

// treeRanker ranks by best-first traversal of the X-tree (Hjaltason &
// Samet), the paper's access path: it reads only the node pages the
// frontier reaches, which is what §5.4's disk cost model rewards.
type treeRanker struct{ tree *xtree.Tree }

func (t treeRanker) rank(cq []float64, _ int) ranking {
	return &treeRanking{tree: t.tree, cq: cq}
}

// treeRanking is best-first from a first pull at +Inf (a k-nn's), which is
// already lazy and ignores reach. A first pull with a finite reach (a
// range's) runs the tree's range search to that reach instead and emits
// its answer in order: best-first would also expand the nodes between the
// reach and the first point past it, which the range search never reads,
// and §5.4 charges every node page read.
type treeRanking struct {
	tree    *xtree.Tree
	cq      []float64
	started bool
	best    *xtree.Ranking   // the k-nn form
	ranged  []index.Neighbor // the range form's answer not yet emitted, in (distance, position) order
}

func (t *treeRanking) next(reach float64) (index.Neighbor, bool) {
	if !t.started {
		t.started = true
		if reach < math.Inf(1) {
			t.ranged = t.tree.Range(t.cq, reach)
		} else {
			t.best = t.tree.NewRanking(t.cq)
		}
	}
	if t.best != nil {
		return t.best.Next()
	}
	if len(t.ranged) == 0 {
		return index.Neighbor{}, false
	}
	nb := t.ranged[0]
	t.ranged = t.ranged[1:]
	return nb, true
}

func (*treeRanking) release() {}

// blockRanker ranks the store's centroid column in place, by blocks of
// vectorset.BlockLen consecutive positions, each with its bounding box. A
// ranking reads a block's rows only when its box can hold one of the
// first chunk or lies within the caller's reach, so a k-nn touches the
// part of the column its frontier reaches, as the paper's X-tree walk does
// (§4.3), without a tree: the boxes are one flat table and the rows are
// read sequentially. The ranking is exact in any position order, since a
// box bounds whatever members it has; a base stored in block order
// (vectorset.BlockOrder: every vsdb heap base and every file the snapshot
// writer makes) gives small boxes, and a column in any other order (a
// file from an older writer) just ranks slower. An index of up to
// BlockLen objects is one block, read whole. The tracker is charged for
// the box table and the rows of the blocks read.
//
// The rows stay float64: a member's squared distance must equal the
// X-tree's bit for bit (Σ (c[j]−q[j])², dimensions in order, one root on
// emit) so both rankers stop the multi-step loop on the same candidate. A
// float32 copy would halve the reads and break the lower bound unless
// every comparison were widened by its rounding error.
type blockRanker struct {
	col      []float64 // the store's column, ranked in place
	n, dim   int
	pageSize int
	tracker  *storage.Tracker

	once sync.Once
	box  []float64 // vectorset.BlockBoxes of col, built by the first ranking (boxes)
	pool sync.Pool // *blockRanking; the index owns it, a new base gets a new one
}

func newBlockRanker(col []float64, n, dim, pageSize int, tracker *storage.Tracker) *blockRanker {
	r := &blockRanker{col: col[:n*dim], n: n, dim: dim, pageSize: pageSize, tracker: tracker}
	r.pool.New = func() any {
		nb := len(r.boxes()) / (2 * dim)
		return &blockRanking{
			r:    r,
			d2:   make([]float64, n),
			read: make([]bool, nb),
			mind: make([]float64, nb),
		}
	}
	return r
}

// boxes returns the block boxes, building them on first use: opening an
// index builds nothing, and a query that meets the build waits for it.
func (r *blockRanker) boxes() []float64 {
	r.once.Do(func() { r.box = vectorset.BlockBoxes(r.col, r.dim) })
	return r.box
}

// boxDist2 is the squared MINDIST from q to block b's box, Σ_j e_j² in
// dimension order with e_j the distance from q[j] to [lo[j], hi[j]]. Rounding
// is monotone, so it is at most the computed d² of every member (whose
// |c[j]−q[j]| is at least e_j); it is never NaN, and an axis whose members
// are all NaN puts the box at +Inf.
func (r *blockRanker) boxDist2(b int, q []float64) float64 {
	d := r.dim
	lo, hi := r.box[2*b*d:(2*b+1)*d], r.box[(2*b+1)*d:(2*b+2)*d]
	lo, hi = lo[:len(q)], hi[:len(q)]
	s := 0.0
	for j, v := range q {
		// At most one of the two differences is positive unless every
		// member is NaN on this axis (lo = +Inf > hi = −Inf). max is
		// branch-free; the NaN it passes on from ∞−∞ (only where q or the
		// box is infinite on j) becomes 0, which bounds anything.
		e := max(lo[j]-v, v-hi[j], 0)
		if e != e {
			e = 0
		}
		s += e * e
	}
	return s
}

// charge bills the tracker for one query's reads: the box table and the
// rows of the blocks read, under the §5.4 page model.
func (r *blockRanker) charge(rows int) {
	if r.tracker == nil {
		return
	}
	boxBytes, rowBytes := len(r.box)*8, rows*r.dim*8
	r.tracker.AddPageAccess((boxBytes+r.pageSize-1)/r.pageSize + (rowBytes+r.pageSize-1)/r.pageSize)
	r.tracker.AddBytes(boxBytes + rowBytes)
}

func (r *blockRanker) rank(cq []float64, first int) ranking {
	rk := r.pool.Get().(*blockRanking)
	rk.begin(cq)
	rk.last, rk.bucketed = ranked{-1, -1}, false
	rk.chunk = min(max(minChunk, chunkPerResult*first), r.n)
	rk.run, rk.cur, rk.sorted = rk.run[:0], 0, 0
	return rk
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

// blockRanking emits positions in (d², position) order without ordering
// more of them than the caller's shrinking reach lets through:
//
//  1. a bounded max-heap keeps the chunk nearest positions, which are
//     emitted sorted — enough for the loop to find its first k exact
//     distances and hence a finite reach. Blocks are read in ascending
//     (MINDIST², block) order until the heap is full and the next block's
//     MINDIST² is strictly greater than its root's d²;
//  2. the first pull with a finite reach collects every un-emitted
//     position within it, reading only the blocks whose MINDIST is. reach
//     only shrinks, so nothing outside that set can ever be asked for. A
//     range's first pull has its reach already and starts here;
//  3. the collected set is scattered into buckets by d² and each bucket
//     is sorted only when the walk gets to it — the loop usually stops
//     about halfway through.
//
// While reach is still +Inf after a chunk (fewer than k live objects in
// it), step 1 repeats with a doubled chunk over what is left. A block's
// rows are read at most once per query.
//
// "Un-emitted" is a comparison, not a mark: emission is strictly
// ascending in (d², position), so a position is un-emitted exactly when
// its key is greater than the last one emitted. A NaN distance (a NaN
// stored or query centroid) compares false both ways and is never
// emitted; ±Inf distances rank last.
type blockRanking struct {
	r  *blockRanker
	cq []float64 // the query centroid, the caller's

	d2   []float64 // squared distance per position, valid where read
	read []bool    // per block: d2 holds its rows for this query
	rows int       // rows read this query, for the tracker
	mind []float64 // MINDIST² per block
	// order lists the blocks in ascending (mind, block) order as far as
	// they have been needed; heap is a min-heap of the rest, once heaped.
	order, heap []int32
	heaped      bool

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

// begin prepares the ranking for cq: every block's MINDIST², nothing read.
func (rk *blockRanking) begin(cq []float64) {
	rk.r.boxes() // built by now (pool.New); the call orders this read after the build
	rk.cq, rk.rows = cq, 0
	clear(rk.read)
	rk.order, rk.heap, rk.heaped = rk.order[:0], rk.heap[:0], false
	for b := range rk.mind {
		rk.mind[b] = rk.r.boxDist2(b, cq)
	}
}

func (rk *blockRanking) blockLess(a, b int32) bool {
	return rk.mind[a] < rk.mind[b] || (rk.mind[a] == rk.mind[b] && a < b)
}

// siftBlock restores the block min-heap below i.
func (rk *blockRanking) siftBlock(i int) {
	h := rk.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && rk.blockLess(h[c+1], h[c]) {
			c++
		}
		if !rk.blockLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// block returns the i-th block in ascending (MINDIST², block) order,
// heapifying the blocks on the query's first call (a range never makes
// one).
func (rk *blockRanking) block(i int) (int, bool) {
	if !rk.heaped {
		for b := range rk.mind {
			rk.heap = append(rk.heap, int32(b))
		}
		for j := len(rk.heap)/2 - 1; j >= 0; j-- {
			rk.siftBlock(j)
		}
		rk.heaped = true
	}
	for len(rk.order) <= i {
		if len(rk.heap) == 0 {
			return 0, false
		}
		rk.order = append(rk.order, rk.heap[0])
		last := len(rk.heap) - 1
		rk.heap[0] = rk.heap[last]
		rk.heap = rk.heap[:last]
		rk.siftBlock(0)
	}
	return int(rk.order[i]), true
}

// rowsOf returns block b's first position and its members' squared
// distances, reading its rows on the first call of the query.
func (rk *blockRanking) rowsOf(b int) (int, []float64) {
	lo, hi := b*vectorset.BlockLen, min((b+1)*vectorset.BlockLen, len(rk.d2))
	if !rk.read[b] {
		d := rk.r.dim
		squaredDistances(rk.d2[lo:hi], rk.r.col[lo*d:hi*d], rk.cq)
		rk.read[b] = true
		rk.rows += hi - lo
	}
	return lo, rk.d2[lo:hi]
}

func (rk *blockRanking) release() {
	rk.r.charge(rk.rows)
	rk.cq = nil
	rk.r.pool.Put(rk)
}

func (rk *blockRanking) next(reach float64) (index.Neighbor, bool) {
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
func (rk *blockRanking) advance(reach float64) bool {
	if !rk.bucketed {
		if r2 := reach * reach; r2 < math.Inf(1) {
			rk.collect(r2)
		} else {
			rk.nearest()
			rk.chunk = min(2*rk.chunk, len(rk.d2))
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
func (rk *blockRanking) nearest() {
	last := rk.last
	h := rk.run[:0] // max-heap under less
	for i := 0; ; i++ {
		b, ok := rk.block(i)
		if !ok || (len(h) == rk.chunk && rk.mind[b] > h[0].d2) {
			break // no member of this block or a later one displaces the root
		}
		lo, d2 := rk.rowsOf(b)
		for t, d := range d2 {
			if len(h) == rk.chunk && d > h[0].d2 {
				continue // cannot displace the root: the common case, one compare
			}
			it := ranked{d, int32(lo + t)}
			if !last.less(it) {
				continue
			}
			if len(h) < rk.chunk {
				h = append(h, it)
				for j := len(h) - 1; j > 0; {
					p := (j - 1) / 2
					if !h[p].less(h[j]) {
						break
					}
					h[p], h[j] = h[j], h[p]
					j = p
				}
			} else if it.less(h[0]) {
				h[0] = it
				siftDown(h)
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
// bucketed by d² (a counting sort on the bucket number). The buckets
// order what it gathers, so it visits the blocks within r2 in storage
// order, not through the block heap.
func (rk *blockRanking) collect(r2 float64) {
	last := rk.last
	cand := rk.cand[:0]
	for b, m := range rk.mind {
		if m > r2 {
			continue
		}
		lo, d2 := rk.rowsOf(b)
		for t, d := range d2 {
			if it := (ranked{d, int32(lo + t)}); d <= r2 && last.less(it) {
				cand = append(cand, it)
			}
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
