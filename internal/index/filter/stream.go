package filter

import (
	"context"
	"math"
	"slices"
	"sync"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/vectorset"
)

// Stream is one source of candidates in ascending Lemma 2 bound: an
// index's Cursor, or a database's walk over its unindexed memtable or,
// for a distance without a bound, over every live object. MultiStep runs
// one loop over any number of them, whatever the query form.
type Stream interface {
	// Next returns the next candidate's lower bound (K·‖C(X)−C(q)‖ for a
	// Cursor) and the stream's position for it, in ascending (bound,
	// position) order. threshold is the loop's current one — the k-th
	// distance (+Inf before it has one) or ε — and never grows from one
	// call to the next; ok is false once no remaining candidate's bound
	// lies within it. A candidate beyond it may still be returned:
	// MultiStep's stop test decides.
	Next(threshold float64) (bound float64, pos int, ok bool)
	// Refine tests the candidate at pos against threshold — liveness, the
	// signature bound, then the threshold-aware matching kernel — and
	// returns its object id and exact distance. ok is false when the
	// candidate is dead or proven farther than threshold; a distance equal
	// to it is kept, so ties at the k-th place and at ε reach the answer.
	Refine(pos int, threshold float64) (id int, d float64, ok bool)
}

// MultiStep answers a query over the union of streams with the optimal
// multi-step algorithm of Seidl & Kriegel [29]: it refines candidates in
// global (bound, stream, position) order against one threshold and stops
// at the first bound that exceeds it, so it refines what a single index
// over the union would, ties in the bound aside. The streams must hold
// disjoint ids.
//
// threshold is where the loop starts. A k-nn starts at +Inf, and once k
// candidates are in the threshold falls to the k-th exact distance; k
// must not exceed the number of objects the streams hold together, since
// it sizes the answer. An ε-range starts at ε and passes k = math.MaxInt,
// no cap, so the threshold stays at ε and the loop refines exactly the
// candidates whose bound is within it (Korn et al. [19]); its answer grows
// as it is found. Either answer is (dist, id)-ordered and identical
// whatever the split into streams, because the result heap breaks
// distance ties by id, not by refinement order.
//
// ctx is checked once per ctxEvery refinements; once it is done MultiStep
// returns ctx.Err() and no answer.
func MultiStep(ctx context.Context, streams []Stream, k int, threshold float64) ([]index.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	type head struct {
		bound float64
		pos   int
		ok    bool
	}
	var buf [8]head
	heads := buf[:0]
	for _, s := range streams {
		b, p, ok := s.Next(threshold)
		heads = append(heads, head{b, p, ok})
	}
	var results resultHeap
	if k < math.MaxInt {
		results = make(resultHeap, 0, k)
	}
	for n := 1; ; n++ {
		if n%ctxEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		best := -1
		for i, h := range heads {
			if h.ok && (best < 0 || h.bound < heads[best].bound) {
				best = i
			}
		}
		if best < 0 || vectorset.BoundExceeds(heads[best].bound, threshold) {
			break // no unseen object can beat the threshold
		}
		s := streams[best]
		if id, d, ok := s.Refine(heads[best].pos, threshold); ok {
			nb := index.Neighbor{ID: id, Dist: d}
			if k == math.MaxInt {
				results = append(results, nb) // a range keeps all it finds
			} else if results.offer(nb, k); len(results) == k {
				threshold = results[0].Dist
			}
		}
		h := &heads[best]
		h.bound, h.pos, h.ok = s.Next(threshold)
	}
	slices.SortFunc(results, compareNeighbors) // the heap's one allocation is a k-nn's answer
	return results, nil
}

// ctxEvery is how many refinements a loop runs between two checks of its
// context: a refinement costs microseconds, so a deadline is noticed
// within well under a millisecond, and the check itself stays out of the
// profile.
const ctxEvery = 64

// Cursor is one query's walk over an index, the Stream MultiStep pulls
// from: Next is the centroid ranking, Refine the liveness test, the
// signature stage and the threshold-aware kernel. Opening one prepares
// only the query (its centroid and signature); the ranking pass over the
// index runs on the first Next, so a caller can open cursors on several
// indexes before it walks any of them. A Cursor is used by one goroutine
// at a time and must be closed, which publishes its counters.
type Cursor struct {
	ix      *Index
	q       qview
	cq      []float64
	first   int
	live    func(id int) bool
	ranking ranking // nil until the first Next
	ws      *dist.Workspace
	t       tally
}

var cursors = sync.Pool{New: func() any { return new(Cursor) }}

// Cursor opens a walk for q over the objects whose id satisfies live (all
// of them when live is nil): a dead candidate is ranked but never refined
// and takes no place in the answer. first — how many candidates the
// cursor is expected to supply before a k-nn loop holds k results: k when
// it is the loop's only stream, its share of k beside others — sizes the
// ranking's first selection; it affects cost, never the answer, and a
// range, whose first pull already has its reach, leaves it unused.
func (ix *Index) Cursor(q vectorset.Flat, first int, live func(id int) bool) *Cursor {
	qv, cq := ix.newQueryFlat(q)
	return ix.cursor(qv, cq, first, live)
}

func (ix *Index) cursor(q qview, cq []float64, first int, live func(id int) bool) *Cursor {
	c := cursors.Get().(*Cursor)
	*c = Cursor{ix: ix, q: q, cq: cq, first: first, live: live}
	return c
}

// Next implements Stream.
func (c *Cursor) Next(threshold float64) (float64, int, bool) {
	if c.ranking == nil {
		if c.ix.Len() == 0 {
			return 0, 0, false
		}
		c.ranking = c.ix.ranker.rank(c.cq, c.first)
	}
	nb, ok := c.ranking.next(c.ix.reach(threshold))
	return nb.Dist * float64(c.ix.cfg.K), nb.ID, ok
}

// Refine implements Stream.
func (c *Cursor) Refine(pos int, threshold float64) (int, float64, bool) {
	id := c.ix.ids[pos]
	if c.live != nil && !c.live(id) {
		return 0, 0, false
	}
	if c.ws == nil {
		c.ws = dist.GetWorkspace()
	}
	// A distance above threshold may come back as +Inf; either way it is
	// no result.
	d := c.ix.exact(c.ws, c.q, pos, threshold, &c.t)
	return id, d, d <= threshold
}

// Close publishes the cursor's counters to its index and releases its
// scratch; the cursor is dead after it.
func (c *Cursor) Close() {
	c.ix.publish(c.t)
	c.q.release()
	if c.ranking != nil {
		c.ranking.release()
	}
	if c.ws != nil {
		dist.PutWorkspace(c.ws)
	}
	*c = Cursor{}
	cursors.Put(c)
}
