package vsdb

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index/filter"
	"github.com/voxset/voxset/internal/vectorset"
)

// Stream is one exact k-nn entry's candidates over one pinned view, as
// the two sources filter.MultiStep merges: the base's cursor, which skips
// tombstoned objects, and the delta memtable in ascending centroid bound.
// Open hands one out per exact k-nn entry; one MultiStep call walks it,
// beside any number of others (one per shard); Close releases it.
type Stream struct {
	db    *DB
	v     *view
	query vectorset.Flat
	base  *filter.Cursor // nil until MultiStep
	delta *deltaStream   // nil until MultiStep, and without delta entries
}

// Open pins one view and prepares every entry of qs against it: an exact
// k-nn entry gets a Stream (streams[i]; its answer is MultiStep over it),
// any other entry — ε-range, partial matching — its complete answer
// (lists[i]), exactly as Search gives it. Opening a stream pins the view
// and nothing more: ranking and refinement run when MultiStep walks it, so
// a sharded coordinator can open every shard before it walks any. Every
// stream must be closed.
//
// A malformed entry (Query.Check) fails the call before anything is
// opened, with an error naming the entry; ctx bounds the range and partial
// entries answered here, and once it is done Open releases what it opened
// and returns ctx.Err().
func (db *DB) Open(ctx context.Context, qs []Query) (streams []*Stream, lists [][]Neighbor, err error) {
	for i := range qs {
		if err := qs[i].Check(db.cfg.Dim, db.cfg.MaxCard); err != nil {
			return nil, nil, fmt.Errorf("vsdb: query %d: %w", i, err)
		}
	}
	v := db.cur.Load()
	streams = make([]*Stream, len(qs))
	lists = make([][]Neighbor, len(qs))
	for i := range qs {
		q := &qs[i]
		switch {
		case q.Match.Partial:
			lists[i], err = db.partialView(ctx, v, q)
		case q.Kind == Range:
			lists[i], err = db.rangeView(ctx, v, q)
		default:
			streams[i] = &Stream{db: db, v: v, query: vectorset.FlatFromRows(q.Set)}
		}
		if err != nil {
			closeStreams(streams)
			return nil, nil, err
		}
	}
	return streams, lists, nil
}

// closeStreams closes every non-nil stream of an Open.
func closeStreams(streams []*Stream) {
	for _, s := range streams {
		if s != nil {
			s.Close()
		}
	}
}

// Close publishes the stream's counters to its database and releases its
// scratch.
func (s *Stream) Close() {
	if s.base != nil {
		s.base.Close()
	}
	if s.delta != nil {
		s.delta.close()
	}
}

// MultiStep answers a k-nn entry over the union of streams opened with
// the same query on databases holding disjoint ids (a cluster's shards):
// one filter.MultiStep over every stream's base cursor and delta walk, in
// global (bound, stream, position) order against one k-th distance. The
// answer is the K nearest, (dist, id)-ordered — what one database holding
// every object answers — and the loop refines what that database's would,
// ties in the bound aside. Once ctx is done it returns ctx.Err() within
// one block of refinements.
func MultiStep(ctx context.Context, streams []*Stream, k int) ([]Neighbor, error) {
	live := 0
	for _, s := range streams {
		live += len(s.v.ids)
	}
	if k = min(k, live); k <= 0 {
		return nil, nil
	}
	var buf [8]filter.Stream
	srcs := buf[:0]
	for _, s := range streams {
		// A view holding a share of the objects supplies about that share
		// of the first k candidates, which sizes its ranking's first
		// selection: k for one database, k/N for each of N even shards.
		first := (k*len(s.v.ids) + live - 1) / live
		s.base = s.v.base.Cursor(s.query, first, s.v.baseLive())
		srcs = append(srcs, s.base)
		if len(s.v.deltaIDs) > 0 {
			s.delta = &deltaStream{db: s.db, v: s.v, query: s.query}
			srcs = append(srcs, s.delta)
		}
	}
	nbs, err := filter.MultiStep(ctx, srcs, k)
	if err != nil {
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
// would be after compaction. Its bounds are computed and sorted on the
// first Next.
type deltaStream struct {
	db    *DB
	v     *view
	query vectorset.Flat
	cands []deltaCand // nil until the first Next
	at    int
	sig   *dist.Signature
	ws    *dist.Workspace

	sigPruned, refined, solved int64
}

// deltaCand is a delta entry's Lemma 2 bound and its index in deltaIDs.
type deltaCand struct {
	bound float64
	pos   int
}

// Next implements filter.Stream.
func (s *deltaStream) Next(threshold float64) (float64, int, bool) {
	if s.cands == nil {
		cq := s.query.Centroid(s.db.cfg.MaxCard, s.db.omega)
		s.cands = make([]deltaCand, len(s.v.deltaIDs))
		for i, id := range s.v.deltaIDs {
			s.cands[i] = deltaCand{s.db.deltaBound(cq, s.v.delta[id]), i}
		}
		slices.SortFunc(s.cands, func(a, b deltaCand) int {
			return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.pos, b.pos))
		})
	}
	if s.at == len(s.cands) || vectorset.BoundExceeds(s.cands[s.at].bound, threshold) {
		return 0, 0, false
	}
	s.at++
	return s.cands[s.at-1].bound, s.cands[s.at-1].pos, true
}

// Refine implements filter.Stream. Delta entries are always live.
func (s *deltaStream) Refine(pos int, threshold float64) (int, float64, bool) {
	id := s.v.deltaIDs[pos]
	e := s.v.delta[id]
	if s.ws == nil {
		s.sig = dist.GetSignature(s.query, s.db.cfg.MaxCard, s.db.omega)
		s.ws = dist.GetWorkspace()
	}
	if threshold < math.Inf(1) && dist.SignatureExceeds(e.sig.Bound(s.sig, 0), threshold) {
		s.sigPruned++
		return 0, 0, false
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
		dist.PutSignature(s.sig)
		dist.PutWorkspace(s.ws)
	}
}
