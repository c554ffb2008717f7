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
// a blocked copy of the store's centroid column (blockRanker).
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

// blockRanker ranks from a blocked copy of the store's centroid column
// (layout): the positions grouped into blocks of blockLen by recursive
// median splits, each block with its bounding box. A ranking reads a
// block's rows only when its box can hold one of the first chunk or lies
// within the caller's reach, so a k-nn touches the part of the column its
// frontier reaches, as the paper's X-tree walk does (§4.3), without a tree:
// the boxes are one flat table and the rows are read sequentially. An
// index of up to blockLen objects is one block, read whole. The tracker is
// charged for the box table and the rows of the blocks read.
//
// The rows stay float64: a member's squared distance must equal the
// X-tree's bit for bit (Σ (c[j]−q[j])², dimensions in order, one root on
// emit) so both rankers stop the multi-step loop on the same candidate. A
// float32 copy would halve the reads and break the lower bound unless
// every comparison were widened by its rounding error.
type blockRanker struct {
	col      []float64 // the store's column, base order; read once, by build
	n, dim   int
	pageSize int
	tracker  *storage.Tracker

	once sync.Once
	lay  *layout   // built by the first ranking (layout)
	pool sync.Pool // *blockRanking; the index owns it, a new base gets a new one
}

// blockLen is the number of positions per block. Measured on the served
// corpus (10 k jittered objects, k = 10), 64 and 32 read within noise of
// each other; a longer block reads more rows per box, a shorter one more
// boxes and coarser signature code spaces (signature.go).
const blockLen = 64

func newBlockRanker(col []float64, n, dim, pageSize int, tracker *storage.Tracker) *blockRanker {
	r := &blockRanker{col: col, n: n, dim: dim, pageSize: pageSize, tracker: tracker}
	r.pool.New = func() any {
		lay := r.layout()
		nb := lay.blocks()
		return &blockRanking{
			r:    r,
			lay:  lay,
			d2:   make([]float64, n),
			read: make([]bool, nb),
			mind: make([]float64, nb),
		}
	}
	return r
}

// layout returns the blocked column, building it on first use: opening an
// index builds nothing, and a query that meets the build waits for it.
func (r *blockRanker) layout() *layout {
	r.once.Do(func() { r.lay = buildLayout(r.col, r.n, r.dim) })
	return r.lay
}

// layout is a store-backed index's centroid column in block order.
type layout struct {
	dim   int
	cents []float64 // slot s's centroid at [s·dim, (s+1)·dim): 48 B per object at dim 6
	perm  []int32   // base position of each slot
	inv   []int32   // slot of each base position
	// box[2b·dim : (2b+1)·dim] is block b's low corner, the next dim values
	// its high corner, over its members' non-NaN coordinates (±Inf kept).
	box []float64
}

// blocks returns the number of blocks; block b holds slots
// [b·blockLen, min((b+1)·blockLen, n)).
func (l *layout) blocks() int { return len(l.box) / (2 * l.dim) }

// buildLayout copies the column into slot order. Each range of more than
// one block is split at a block boundary near its middle, along the axis
// of its widest spread, by selection (not a sort) on that coordinate; the
// rows move with their positions, so every level reads them sequentially.
// The result depends only on the column.
func buildLayout(col []float64, n, dim int) *layout {
	nb := (n + blockLen - 1) / blockLen
	l := &layout{
		dim:   dim,
		cents: slices.Clone(col[:n*dim]),
		perm:  make([]int32, n),
		inv:   make([]int32, n),
		box:   make([]float64, 2*nb*dim),
	}
	for i := range l.perm {
		l.perm[i] = int32(i)
	}
	l.split(0, n, make([]float64, dim), make([]float64, dim))
	for s, p := range l.perm {
		l.inv[p] = int32(s)
	}
	for b := 0; b < nb; b++ {
		lo, hi := l.box[2*b*dim:(2*b+1)*dim], l.box[(2*b+1)*dim:(2*b+2)*dim]
		for j := range lo {
			lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		}
		for s := b * blockLen; s < min((b+1)*blockLen, n); s++ {
			for j, v := range l.cents[s*dim : (s+1)*dim] {
				// A NaN fails both tests: it would turn the box into NaN
				// and hide the block's finite members.
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
	}
	return l
}

// split orders slots [lo, hi) into blocks; mn and mx are dim-long
// scratch.
func (l *layout) split(lo, hi int, mn, mx []float64) {
	dim := l.dim
	for hi-lo > blockLen {
		for j := range mn {
			mn[j], mx[j] = math.Inf(1), math.Inf(-1)
		}
		for s := lo; s < hi; s++ {
			for j, v := range l.cents[s*dim : (s+1)*dim] {
				if v < mn[j] {
					mn[j] = v
				}
				if v > mx[j] {
					mx[j] = v
				}
			}
		}
		axis, widest := 0, math.Inf(-1)
		for j := range mn {
			if w := mx[j] - mn[j]; w > widest {
				axis, widest = j, w
			}
		}
		mid := lo + ((hi-lo+blockLen-1)/blockLen+1)/2*blockLen
		l.nth(lo, hi, mid, axis)
		l.split(lo, mid, mn, mx)
		lo = mid
	}
}

// nth reorders slots [lo, hi) so that slot nth holds the row of that rank
// by its axis coordinate, no row before it greater and none after it less
// (quickselect: median-of-three pivot, Hoare partition, which splits runs
// of equal keys evenly). A NaN coordinate sorts as +Inf.
func (l *layout) nth(lo, hi, nth, axis int) {
	key := func(s int) float64 {
		if v := l.cents[s*l.dim+axis]; v == v {
			return v
		}
		return math.Inf(1)
	}
	for hi-lo > 1 {
		a, b, c := key(lo), key(lo+(hi-lo)/2), key(hi-1)
		p := max(min(a, b), min(max(a, b), c)) // the median of the three
		i, j := lo, hi-1
		for i <= j {
			for key(i) < p {
				i++
			}
			for key(j) > p {
				j--
			}
			if i <= j {
				l.swap(i, j)
				i++
				j--
			}
		}
		switch { // [lo, j] ≤ p, (j, i) = p, [i, hi) ≥ p
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

func (l *layout) swap(a, b int) {
	if a == b {
		return
	}
	l.perm[a], l.perm[b] = l.perm[b], l.perm[a]
	ra, rb := l.cents[a*l.dim:(a+1)*l.dim], l.cents[b*l.dim:(b+1)*l.dim]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// boxDist2 is the squared MINDIST from q to block b's box, Σ_j e_j² in
// dimension order with e_j the distance from q[j] to [lo[j], hi[j]]. Rounding
// is monotone, so it is at most the computed d² of every member (whose
// |c[j]−q[j]| is at least e_j); it is never NaN, and an axis whose members
// are all NaN puts the box at +Inf.
func (l *layout) boxDist2(b int, q []float64) float64 {
	d := l.dim
	lo, hi := l.box[2*b*d:(2*b+1)*d], l.box[(2*b+1)*d:(2*b+2)*d]
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
func (r *blockRanker) charge(l *layout, rows int) {
	if r.tracker == nil {
		return
	}
	boxBytes, rowBytes := len(l.box)*8, rows*r.dim*8
	r.tracker.AddPageAccess((boxBytes+r.pageSize-1)/r.pageSize + (rowBytes+r.pageSize-1)/r.pageSize)
	r.tracker.AddBytes(boxBytes + rowBytes)
}

func (r *blockRanker) rank(cq []float64, first int) ranking {
	rk := r.pool.Get().(*blockRanking)
	rk.begin(cq)
	rk.last, rk.bucketed = ranked{-1, -1}, false
	rk.chunk = min(max(minChunk, chunkPerResult*first), r.n)
	rk.nearest()
	return rk
}

func (r *blockRanker) within(cq []float64, reach float64) []index.Neighbor {
	l := r.layout()
	r2 := reach * reach
	var out []index.Neighbor
	var d2 [blockLen]float64
	rows := 0
	for b := range l.blocks() {
		if l.boxDist2(b, cq) > r2 {
			continue
		}
		lo, hi := b*blockLen, min((b+1)*blockLen, r.n)
		squaredDistances(d2[:hi-lo], l.cents[lo*r.dim:hi*r.dim], cq)
		rows += hi - lo
		for t, d := range d2[:hi-lo] {
			if d <= r2 { // false for a NaN distance: never a candidate
				out = append(out, index.Neighbor{ID: int(l.perm[lo+t]), Dist: math.Sqrt(d)})
			}
		}
	}
	r.charge(l, rows)
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
//     only shrinks, so nothing outside that set can ever be asked for;
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
	r   *blockRanker
	lay *layout
	cq  []float64 // the query centroid, the caller's

	d2   []float64 // squared distance per slot, valid where read
	read []bool    // per block: d2 holds its rows for this query
	rows int       // rows read this query, for the tracker
	mind []float64 // MINDIST² per block
	// order lists the blocks in ascending (mind, block) order as far as
	// they have been needed; heap is a min-heap of the rest.
	order, heap []int32

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
	rk.cq, rk.rows = cq, 0
	clear(rk.read)
	rk.order, rk.heap = rk.order[:0], rk.heap[:0]
	for b := range rk.mind {
		rk.mind[b] = rk.lay.boxDist2(b, cq)
		rk.heap = append(rk.heap, int32(b))
	}
	for i := len(rk.heap)/2 - 1; i >= 0; i-- {
		rk.siftBlock(i)
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

// block returns the i-th block in ascending (MINDIST², block) order.
func (rk *blockRanking) block(i int) (int, bool) {
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

// rowsOf returns block b's first slot and its members' squared
// distances, reading its rows on the first call of the query.
func (rk *blockRanking) rowsOf(b int) (int, []float64) {
	lo, hi := b*blockLen, min((b+1)*blockLen, len(rk.d2))
	if !rk.read[b] {
		d := rk.r.dim
		squaredDistances(rk.d2[lo:hi], rk.lay.cents[lo*d:hi*d], rk.cq)
		rk.read[b] = true
		rk.rows += hi - lo
	}
	return lo, rk.d2[lo:hi]
}

func (rk *blockRanking) release() {
	rk.r.charge(rk.lay, rk.rows)
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
func (rk *blockRanking) nearest() {
	last, perm := rk.last, rk.lay.perm
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
			it := ranked{d, perm[lo+t]}
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
// bucketed by d² (a counting sort on the bucket number).
func (rk *blockRanking) collect(r2 float64) {
	last, perm := rk.last, rk.lay.perm
	cand := rk.cand[:0]
	for i := 0; ; i++ {
		b, ok := rk.block(i)
		if !ok || rk.mind[b] > r2 {
			break
		}
		lo, d2 := rk.rowsOf(b)
		for t, d := range d2 {
			if it := (ranked{d, perm[lo+t]}); d <= r2 && last.less(it) {
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
