package vsdb

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index/filter"
	"github.com/voxset/voxset/internal/vectorset"
)

// Stream is one query entry's candidates over one pinned view, as the
// sources filter.MultiStep walks. An entry under the minimal matching
// distance has two: the base's cursor, which skips tombstoned objects, and
// the delta memtable in ascending centroid bound. A partial-matching entry
// has one scan over every live object (scanStream). Open hands out one per
// entry; one MultiStep call walks it, beside any number of others opened
// with the same entry (one per shard).
type Stream struct {
	db    *DB
	v     *view
	q     Query
	base  *filter.Cursor // nil until MultiStep, and for a partial entry
	delta *deltaStream   // nil until MultiStep, and without delta entries
	scan  *scanStream    // a partial entry's, nil until MultiStep
}

// Open pins one view and hands out a Stream for every entry of qs, k-nn
// or ε-range, under either set distance: its answer is MultiStep over it.
// Opening pins the view and nothing more — ranking and refinement run when
// MultiStep walks the stream — so a sharded coordinator can open every
// shard before it walks any. A stream holds nothing until it is walked;
// Close releases what the walk took. A malformed entry (Query.Check) fails
// the call, with an error naming the entry.
func (db *DB) Open(qs []Query) ([]*Stream, error) {
	for i := range qs {
		if err := qs[i].Check(db.cfg.Dim, db.cfg.MaxCard); err != nil {
			return nil, fmt.Errorf("vsdb: query %d: %w", i, err)
		}
	}
	v := db.cur.Load()
	all := make([]Stream, len(qs))
	streams := make([]*Stream, len(qs))
	for i := range qs {
		all[i] = Stream{db: db, v: v, q: qs[i]}
		streams[i] = &all[i]
	}
	return streams, nil
}

// Close publishes the counters of the stream's walk to its database and
// releases its scratch.
func (s *Stream) Close() {
	if s.base != nil {
		s.base.Close()
	}
	if s.delta != nil {
		s.delta.close()
	}
	if s.scan != nil {
		s.scan.close()
	}
	s.base, s.delta, s.scan = nil, nil, nil
}

// MultiStep answers one entry over the union of streams opened with it on
// databases holding disjoint ids (a cluster's shards): one
// filter.MultiStep over every stream's sources, in global (bound, stream,
// position) order. A k-nn starts at +Inf and keeps the K nearest; an
// ε-range holds its threshold at Eps, so it refines exactly the
// candidates whose bound is within Eps. The answer is (dist, id)-ordered —
// what one database holding every object answers — and the loop refines
// what that database's would, ties in the bound aside. Once ctx is done it
// returns ctx.Err() within one block of refinements.
func MultiStep(ctx context.Context, streams []*Stream) ([]Neighbor, error) {
	if len(streams) == 0 {
		return nil, nil
	}
	q := &streams[0].q
	live := 0
	for _, s := range streams {
		live += len(s.v.ids)
	}
	k, threshold := math.MaxInt, q.Eps
	if q.Kind == KNN {
		if k, threshold = min(q.K, live), math.Inf(1); k <= 0 {
			return nil, nil
		}
	}
	var query vectorset.Flat
	if !q.Match.Partial {
		query = vectorset.FlatFromRows(q.Set)
	}
	var buf [8]filter.Stream
	srcs := buf[:0]
	for _, s := range streams {
		if q.Match.Partial {
			s.scan = &scanStream{db: s.db, v: s.v, q: q}
			srcs = append(srcs, s.scan)
			continue
		}
		// A k-nn's view holding a share of the objects supplies about that
		// share of the first k candidates, which sizes its ranking's first
		// selection: k for one database, k/N for each of N even shards.
		first := 0
		if q.Kind == KNN {
			first = (k*len(s.v.ids) + live - 1) / live
		}
		s.base = s.v.base.Cursor(query, first, s.v.baseLive())
		srcs = append(srcs, s.base)
		if len(s.v.deltaIDs) > 0 {
			s.delta = &deltaStream{db: s.db, v: s.v, query: query}
			srcs = append(srcs, s.delta)
		}
	}
	nbs, err := filter.MultiStep(ctx, srcs, k, threshold)
	if err != nil || len(nbs) == 0 {
		return nil, err
	}
	out := make([]Neighbor, len(nbs))
	for i, nb := range nbs {
		out[i] = Neighbor{ID: uint64(nb.ID), Dist: nb.Dist}
	}
	return out, nil
}

// deltaStream walks a view's delta memtable as a filter.Stream: entries in
// ascending (centroid bound, insertion position), each refined through the
// signature bound and the threshold-aware kernel exactly as the base's
// cursor refines a base object, so an entry is pruned exactly when it
// would be after compaction. Its bounds are computed and heapified on the
// first Next, and each Next pops the least: a query pulls only the entries
// within its threshold, so ordering the rest would be wasted.
type deltaStream struct {
	db    *DB
	v     *view
	query vectorset.Flat
	cands []deltaCand // nil until the first Next; then a min-heap of the entries not yet pulled
	sig   *deltaSig   // nil until the first Refine, like ws
	ws    *dist.Workspace

	sigPruned, refined, solved int64
}

// deltaSig is a delta walk's signature scratch: the query's exact
// signature and its quantization into the code space of the entry being
// refined (each entry is a block of one).
type deltaSig struct {
	exact dist.Signature
	quant dist.QuantizedSignature
}

var deltaSigs = sync.Pool{New: func() any { return new(deltaSig) }}

// deltaCand is a delta entry's Lemma 2 bound and its index in deltaIDs.
type deltaCand struct {
	bound float64
	pos   int
}

// candLess orders delta candidates by (bound, pos); positions are unique,
// so the order is total and the heap pops one fixed sequence.
func candLess(a, b deltaCand) bool {
	return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.pos, b.pos)) < 0
}

// siftDown restores the min-heap under candLess below index i.
func siftDown(h []deltaCand, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && candLess(h[c+1], h[c]) {
			c++
		}
		if !candLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Next implements filter.Stream.
func (s *deltaStream) Next(threshold float64) (float64, int, bool) {
	if s.cands == nil {
		cq := s.query.Centroid(s.db.cfg.MaxCard, s.db.omega)
		s.cands = make([]deltaCand, len(s.v.deltaIDs))
		for i, id := range s.v.deltaIDs {
			s.cands[i] = deltaCand{s.db.deltaBound(cq, s.v.delta[id]), i}
		}
		for i := len(s.cands)/2 - 1; i >= 0; i-- {
			siftDown(s.cands, i)
		}
	}
	if len(s.cands) == 0 || vectorset.BoundExceeds(s.cands[0].bound, threshold) {
		return 0, 0, false
	}
	top, last := s.cands[0], len(s.cands)-1
	s.cands[0] = s.cands[last]
	s.cands = s.cands[:last]
	siftDown(s.cands, 0)
	return top.bound, top.pos, true
}

// Refine implements filter.Stream. Delta entries are always live.
func (s *deltaStream) Refine(pos int, threshold float64) (int, float64, bool) {
	id := s.v.deltaIDs[pos]
	e := s.v.delta[id]
	if s.ws == nil {
		s.sig = deltaSigs.Get().(*deltaSig)
		s.sig.exact.Reset(s.query, s.db.cfg.MaxCard, s.db.omega)
		s.ws = dist.GetWorkspace()
	}
	if threshold < math.Inf(1) {
		e.sig.Quantize(&s.sig.exact, &s.sig.quant)
		if e.sig.Exceeds(&s.sig.quant, 0, threshold) {
			s.sigPruned++
			return 0, 0, false
		}
	}
	s.refined++
	d, within := s.ws.MatchingDistanceFlatWithin(s.query, e.set, s.db.omega, threshold)
	if !within {
		return 0, 0, false
	}
	s.solved++
	return int(id), d, d <= threshold
}

func (s *deltaStream) close() {
	s.db.sigExtra.Add(s.sigPruned)
	s.db.refExtra.Add(s.refined)
	s.db.matchExtra.Add(s.solved)
	if s.ws != nil {
		deltaSigs.Put(s.sig)
		dist.PutWorkspace(s.ws)
	}
}

// scanStream is a partial-matching entry's candidates over one view: every
// live object, base and delta alike, tombstones excluded, each at bound 0.
// The partial distance is not a metric and has no Lemma 2 bound, so the
// loop refines every object — each one counts as a refinement — and keeps
// the K best (a k-nn) or those within Eps (a range).
type scanStream struct {
	db      *DB
	v       *view
	q       *Query
	next    int // index in v.ids of the next object
	ws      *dist.Workspace
	refined int64
}

// Next implements filter.Stream.
func (s *scanStream) Next(float64) (float64, int, bool) {
	if s.next == len(s.v.ids) {
		return 0, 0, false
	}
	s.next++
	return 0, s.next - 1, true
}

// Refine implements filter.Stream.
func (s *scanStream) Refine(pos int, threshold float64) (int, float64, bool) {
	if s.ws == nil {
		s.ws = dist.GetWorkspace()
	}
	s.refined++
	id := s.v.ids[pos]
	set := s.v.get(id).Rows()
	d := s.ws.PartialMatching(s.q.Set, set, dist.L2, s.q.Match.partialI(len(s.q.Set), len(set)))
	return int(id), d, d <= threshold
}

func (s *scanStream) close() {
	s.db.refExtra.Add(s.refined)
	if s.ws != nil {
		dist.PutWorkspace(s.ws)
	}
}
