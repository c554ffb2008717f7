// Package xtree implements the X-tree of Berchtold, Keim and Kriegel
// (VLDB'96) [paper ref. 8]: an R*-tree derivative for high-dimensional
// point data that avoids the overlap degeneration of R-trees by keeping a
// split history and creating *supernodes* (directory nodes spanning
// several pages) whenever no overlap-minimal split is possible.
//
// The paper stores the 6-d extended centroids of the vector sets and the
// 6k-d one-vector features in X-trees (§4.3, §5.4). This implementation
// is memory-resident; node accesses are charged to an optional
// storage.Tracker with one page access per node page, reproducing the
// paper's I/O accounting.
package xtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/storage"
)

// Config tunes the tree.
type Config struct {
	// PageSize is the simulated page size in bytes (storage.DefaultPageSize
	// if zero).
	PageSize int
	// MinFillRatio is the minimum fraction of entries per node after a
	// split (0.4 if zero, the R*-tree default).
	MinFillRatio float64
	// MaxOverlapRatio is the overlap threshold above which a topological
	// split of a directory node is rejected (0.2 if zero, the X-tree
	// default).
	MaxOverlapRatio float64
	// Tracker, if non-nil, is charged for node accesses during queries.
	Tracker *storage.Tracker
}

// Tree is an X-tree over dim-dimensional points.
type Tree struct {
	dim        int
	cfg        Config
	root       *node
	size       int
	leafCap    int // entries per leaf page
	dirCap     int // entries per directory page
	height     int
	supernodes int
}

type rect struct {
	lo, hi []float64
}

type entry struct {
	r     rect
	child *node // nil for leaf entries
	id    int   // object id for leaf entries
}

type node struct {
	leaf    bool
	entries []entry
	pages   int    // ≥ 1; > 1 marks a supernode
	history uint64 // bitmask of dimensions this node was split along
}

// New returns an empty X-tree for dim-dimensional points.
func New(dim int, cfg Config) *Tree {
	if dim <= 0 {
		panic("xtree: dimension must be positive")
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	if cfg.MinFillRatio == 0 {
		cfg.MinFillRatio = 0.4
	}
	if cfg.MaxOverlapRatio == 0 {
		cfg.MaxOverlapRatio = 0.2
	}
	t := &Tree{dim: dim, cfg: cfg}
	// Leaf entry: point (dim float64) + id (8 bytes).
	t.leafCap = cfg.PageSize / (dim*8 + 8)
	// Directory entry: MBR (2·dim float64) + child pointer (8 bytes).
	t.dirCap = cfg.PageSize / (2*dim*8 + 8)
	if t.leafCap < 2 {
		t.leafCap = 2
	}
	if t.dirCap < 2 {
		t.dirCap = 2
	}
	t.root = &node{leaf: true, pages: 1}
	t.height = 1
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Dim returns the dimensionality of the indexed points.
func (t *Tree) Dim() int { return t.dim }

func (t *Tree) capOf(n *node) int {
	if n.leaf {
		return t.leafCap * n.pages
	}
	return t.dirCap * n.pages
}

func (t *Tree) checkPoint(p []float64) {
	if len(p) != t.dim {
		panic(fmt.Sprintf("xtree: point has dim %d, tree wants %d", len(p), t.dim))
	}
}

func pointRect(p []float64) rect {
	lo := append([]float64(nil), p...)
	hi := append([]float64(nil), p...)
	return rect{lo, hi}
}

func (r rect) clone() rect {
	return rect{append([]float64(nil), r.lo...), append([]float64(nil), r.hi...)}
}

func (r rect) enlarge(s rect) {
	for i := range r.lo {
		if s.lo[i] < r.lo[i] {
			r.lo[i] = s.lo[i]
		}
		if s.hi[i] > r.hi[i] {
			r.hi[i] = s.hi[i]
		}
	}
}

func (r rect) margin() float64 {
	m := 0.0
	for i := range r.lo {
		m += r.hi[i] - r.lo[i]
	}
	return m
}

func (r rect) area() float64 {
	a := 1.0
	for i := range r.lo {
		a *= r.hi[i] - r.lo[i]
	}
	return a
}

func (r rect) enlargedArea(s rect) float64 {
	a := 1.0
	for i := range r.lo {
		lo, hi := r.lo[i], r.hi[i]
		if s.lo[i] < lo {
			lo = s.lo[i]
		}
		if s.hi[i] > hi {
			hi = s.hi[i]
		}
		a *= hi - lo
	}
	return a
}

func (r rect) overlapArea(s rect) float64 {
	a := 1.0
	for i := range r.lo {
		lo := math.Max(r.lo[i], s.lo[i])
		hi := math.Min(r.hi[i], s.hi[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// minDist is the minimum squared-free Euclidean distance from point p to
// the rectangle.
func (r rect) minDist(p []float64) float64 {
	return math.Sqrt(r.minDistSq(p))
}

// minDistSq is minDist without the final square root — the ranking heap
// orders by it (sqrt is strictly monotone and tie-preserving on
// non-negative sums, so the pop order is unchanged) and takes the root
// only for point items it actually returns.
func (r rect) minDistSq(p []float64) float64 {
	sum := 0.0
	lo, hi := r.lo, r.hi
	for i := range p {
		var d float64
		if p[i] < lo[i] {
			d = lo[i] - p[i]
		} else if p[i] > hi[i] {
			d = p[i] - hi[i]
		}
		sum += d * d
	}
	return sum
}

func mbrOf(entries []entry) rect {
	r := entries[0].r.clone()
	for _, e := range entries[1:] {
		r.enlarge(e.r)
	}
	return r
}

// Insert adds the point with the given object id.
func (t *Tree) Insert(p []float64, id int) {
	t.checkPoint(p)
	e := entry{r: pointRect(p), id: id}
	split := t.insert(t.root, e)
	if split != nil {
		// Root split: new root with the two halves.
		old := t.root
		t.root = &node{
			leaf:  false,
			pages: 1,
			entries: []entry{
				{r: mbrOf(old.entries), child: old},
				{r: mbrOf(split.entries), child: split},
			},
		}
		t.height++
	}
	t.size++
}

// insert descends to a leaf, inserts, and propagates splits upward.
// It returns a new sibling if the node was split.
func (t *Tree) insert(n *node, e entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.capOf(n) {
			return t.split(n)
		}
		return nil
	}
	// ChooseSubtree: least overlap enlargement at the level above leaves,
	// least area enlargement otherwise (R*-tree policy, simplified to
	// least enlargement then least area everywhere — adequate for point
	// data).
	best := -1
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i := range n.entries {
		area := n.entries[i].r.area()
		enl := n.entries[i].r.enlargedArea(e.r) - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	child := n.entries[best].child
	sibling := t.insert(child, e)
	n.entries[best].r = mbrOf(child.entries)
	if sibling != nil {
		n.entries = append(n.entries, entry{r: mbrOf(sibling.entries), child: sibling})
		if len(n.entries) > t.capOf(n) {
			return t.split(n)
		}
	}
	return nil
}

// split implements the X-tree split decision: topological (R*) split; for
// directory nodes whose topological split overlaps too much, an
// overlap-minimal split along a shared split-history dimension; if that
// is too unbalanced, no split — the node grows into a supernode.
func (t *Tree) split(n *node) *node {
	dim, idx := t.topologicalSplit(n)
	left := n.entries[:idx]
	right := n.entries[idx:]

	if !n.leaf {
		lr, rr := mbrOf(left), mbrOf(right)
		overlap := lr.overlapArea(rr)
		union := lr.clone()
		union.enlarge(rr)
		if ua := union.area(); ua > 0 && overlap/ua > t.cfg.MaxOverlapRatio {
			// Try an overlap-minimal split along a dimension every child
			// has been split by (the split-history criterion).
			if d, i, ok := t.overlapMinimalSplit(n); ok {
				dim, idx = d, i
				left = n.entries[:idx]
				right = n.entries[idx:]
			} else {
				// No good split: extend into a supernode.
				if n.pages == 1 {
					t.supernodes++
				}
				n.pages++
				return nil
			}
		}
	}

	sib := &node{leaf: n.leaf, pages: 1, history: n.history | 1<<uint(dim)}
	sib.entries = append(sib.entries, right...)
	n.entries = append(n.entries[:0:0], left...)
	n.history |= 1 << uint(dim)
	if n.pages > 1 {
		t.supernodes--
		n.pages = 1
	}
	return sib
}

// topologicalSplit is the R*-tree split: choose the axis with minimal
// total margin over candidate distributions, then the distribution with
// minimal overlap (ties: minimal area). It sorts n.entries in place and
// returns the chosen axis and split position.
func (t *Tree) topologicalSplit(n *node) (axis, splitIdx int) {
	m := len(n.entries)
	minEntries := int(t.cfg.MinFillRatio * float64(t.capOf(n)))
	if minEntries < 1 {
		minEntries = 1
	}
	if minEntries > m/2 {
		minEntries = m / 2
	}

	bestAxis, bestMargin := -1, math.Inf(1)
	for d := 0; d < t.dim; d++ {
		sortEntries(n.entries, d)
		margin := 0.0
		for k := minEntries; k <= m-minEntries; k++ {
			margin += mbrOf(n.entries[:k]).margin() + mbrOf(n.entries[k:]).margin()
		}
		if margin < bestMargin {
			bestMargin, bestAxis = margin, d
		}
	}

	sortEntries(n.entries, bestAxis)
	bestIdx, bestOverlap, bestArea := -1, math.Inf(1), math.Inf(1)
	for k := minEntries; k <= m-minEntries; k++ {
		lr, rr := mbrOf(n.entries[:k]), mbrOf(n.entries[k:])
		ov := lr.overlapArea(rr)
		ar := lr.area() + rr.area()
		if ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
			bestIdx, bestOverlap, bestArea = k, ov, ar
		}
	}
	return bestAxis, bestIdx
}

// overlapMinimalSplit searches for a dimension in the split history of
// all children along which the entries separate with zero (or minimal)
// overlap and acceptable balance. Returns ok=false if every candidate is
// too unbalanced.
func (t *Tree) overlapMinimalSplit(n *node) (axis, splitIdx int, ok bool) {
	m := len(n.entries)
	// Dimensions shared by the split history of all children.
	shared := ^uint64(0)
	for _, e := range n.entries {
		if e.child != nil {
			shared &= e.child.history
		}
	}
	minBalance := int(t.cfg.MinFillRatio * float64(t.capOf(n)) / 2)
	if minBalance < 1 {
		minBalance = 1
	}
	for d := 0; d < t.dim; d++ {
		if shared != 0 && shared&(1<<uint(d)) == 0 {
			continue // prefer history dimensions when any exist
		}
		sortEntries(n.entries, d)
		for k := minBalance; k <= m-minBalance; k++ {
			lr, rr := mbrOf(n.entries[:k]), mbrOf(n.entries[k:])
			if lr.overlapArea(rr) == 0 {
				return d, k, true
			}
		}
	}
	return 0, 0, false
}

func sortEntries(es []entry, d int) {
	// slices.SortFunc, not sort.Slice: the reflection-based swapper was
	// ~45% of a 100k-object STR bulk load (the cold-start critical path).
	slices.SortFunc(es, func(a, b entry) int {
		if a.r.lo[d] != b.r.lo[d] {
			return cmp.Compare(a.r.lo[d], b.r.lo[d])
		}
		return cmp.Compare(a.r.hi[d], b.r.hi[d])
	})
}

func (t *Tree) charge(n *node) {
	if t.cfg.Tracker != nil {
		t.cfg.Tracker.AddPageAccess(n.pages)
		sz := 0
		if n.leaf {
			sz = len(n.entries) * (t.dim*8 + 8)
		} else {
			sz = len(n.entries) * (2*t.dim*8 + 8)
		}
		t.cfg.Tracker.AddBytes(sz)
	}
}

// Range reports all points within Euclidean distance eps of q.
func (t *Tree) Range(q []float64, eps float64) []index.Neighbor {
	t.checkPoint(q)
	var out []index.Neighbor
	t.rangeSearch(t.root, q, eps, &out)
	sort.Sort(index.ByDistance(out))
	return out
}

func (t *Tree) rangeSearch(n *node, q []float64, eps float64, out *[]index.Neighbor) {
	t.charge(n)
	for i := range n.entries {
		e := &n.entries[i]
		d := e.r.minDist(q)
		if d > eps {
			continue
		}
		if n.leaf {
			*out = append(*out, index.Neighbor{ID: e.id, Dist: d})
		} else {
			t.rangeSearch(e.child, q, eps, out)
		}
	}
}

// KNN reports the k nearest neighbors of q (fewer if the tree holds fewer
// points), ordered by distance. Best-first branch-and-bound search.
func (t *Tree) KNN(q []float64, k int) []index.Neighbor {
	it := t.NewRanking(q)
	var out []index.Neighbor
	for len(out) < k {
		nb, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, nb)
	}
	return out
}

// Ranking is an incremental nearest-neighbor iterator (Hjaltason &
// Samet style), the primitive required by the optimal multi-step k-nn
// algorithm of Seidl & Kriegel [29].
type Ranking struct {
	t *Tree
	q []float64
	h rankHeap
	// nodes holds the directory nodes referenced by heap items, so the
	// heap slice itself stays pointer-free (16-byte items, no write
	// barriers on sift swaps, no GC scanning of the candidate frontier).
	nodes []*node
}

type rankItem struct {
	dist float64
	// ref ≥ 0 is a point id; ref < 0 refers to Ranking.nodes[^ref].
	ref int64
}

// rankHeap is a hand-rolled binary min-heap over rankItem values. The
// sift routines mirror container/heap exactly (same comparisons, same
// swap order, so the pop sequence — ties included — is unchanged), but
// operating on the concrete slice avoids the interface{} boxing that
// made every Push/Pop in the hot ranking loop a heap allocation.
type rankHeap []rankItem

func (h *rankHeap) push(it rankItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *rankHeap) pop() rankItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

func (h rankHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[i].dist <= h[j].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h rankHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // = 2*i + 2  // right child
		}
		if h[i].dist <= h[j].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// NewRanking starts an incremental ranking of all indexed points by
// distance to q.
func (t *Tree) NewRanking(q []float64) *Ranking {
	t.checkPoint(q)
	r := &Ranking{t: t, q: q, h: make(rankHeap, 0, 64)}
	r.nodes = append(r.nodes, t.root)
	r.h.push(rankItem{dist: 0, ref: ^int64(0)})
	return r
}

// Next returns the next closest point, or ok=false when exhausted.
// Heap items carry squared distances; the root is taken once per
// returned point, never for pruned subtrees or unvisited candidates.
func (r *Ranking) Next() (index.Neighbor, bool) {
	for len(r.h) > 0 {
		it := r.h.pop()
		if it.ref >= 0 {
			return index.Neighbor{ID: int(it.ref), Dist: math.Sqrt(it.dist)}, true
		}
		n := r.nodes[^it.ref]
		r.t.charge(n)
		for i := range n.entries {
			e := &n.entries[i]
			d := e.r.minDistSq(r.q)
			if n.leaf {
				r.h.push(rankItem{dist: d, ref: int64(e.id)})
			} else {
				r.h.push(rankItem{dist: d, ref: ^int64(len(r.nodes))})
				r.nodes = append(r.nodes, e.child)
			}
		}
	}
	return index.Neighbor{}, false
}
