package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/voxset/voxset/internal/vsdb"
)

// Result is one coordinated query outcome. In strict mode Partial is
// always false (a failure fails the query instead); in partial mode a
// degraded result carries the surviving shards' merged neighbors, the
// Partial flag, and per-shard error detail.
type Result struct {
	Neighbors []vsdb.Neighbor
	// Partial reports that at least one shard failed and Neighbors
	// covers only the surviving shards.
	Partial bool
	// Errors maps failed shard indexes to their errors (nil when none).
	Errors map[int]error
}

// Search answers every query of the batch in ONE pass over the shards:
// the coordinator opens them in turn, each receiving the whole batch once
// (one retry loop, one timeout, one epoch view pinned shard-side by
// vsdb.DB.Open), and then answers each entry from what the shards opened.
// The result is bit-identical to an unsharded database holding the same
// objects, for every Kind and Match:
//
//   - an exact k-nn entry opens one candidate stream per shard, and
//     vsdb.MultiStep refines the streams' candidates in one global
//     (bound, shard, position) order against one k-th distance, stopping
//     at the first bound past it — one database's multi-step loop over
//     the union, so the shards together refine what that database would
//     (DESIGN.md §9);
//   - every other entry (ε-range, partial matching) is answered by each
//     shard in full and merged under the (dist, id) contract: every set
//     distance is scored per (query, object) pair, so an ε-range result is
//     the disjoint union of the shards' results and each member of a
//     global top K is inside its own shard's top K.
//
// Faults, retries, per-shard timeouts and follower reads apply to the
// opening attempt (callSearch); the streams are walked afterwards, under
// ctx alone. Everything runs on the calling goroutine. Degradation is per
// call, not per entry: in strict mode the first shard failure fails the
// whole Search and the shards after it are not opened; in partial mode a
// failed shard is missing from every entry alike, so all results of one
// call share one Partial flag and one Errors map. Each opened shard's
// query counter advances by len(qs) — it counts logical queries, not
// visits.
//
// A malformed entry (vsdb.Query.Check) fails the call before any shard is
// opened. When ctx ends — the caller's deadline, not a shard's — Search
// returns ctx.Err() without retrying or degrading.
func (c *DB) Search(ctx context.Context, qs []vsdb.Query) ([]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	for i := range qs {
		if err := qs[i].Check(c.cfg.Dim, c.cfg.MaxCard); err != nil {
			return nil, fmt.Errorf("cluster: query %d: %w", i, err)
		}
	}
	n := len(c.shards)
	partial := c.partial.Load()
	// Per entry, what each opened shard gave: a stream for an exact k-nn
	// entry, the complete list for any other.
	streams := make([][]*vsdb.Stream, len(qs))
	lists := make([][][]vsdb.Neighbor, len(qs))
	closeEntry := func(q int) {
		for _, s := range streams[q] {
			s.Close()
		}
		streams[q] = nil
	}
	defer func() { // what a failure leaves open
		for q := range streams {
			closeEntry(q)
		}
	}()
	var shardErrs map[int]error
	var first error
	for i := 0; i < n; i++ {
		o, err := c.callSearch(ctx, i, qs)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !partial {
				return nil, fmt.Errorf("cluster: %w", err)
			}
			if first == nil {
				first = err
				shardErrs = make(map[int]error)
			}
			shardErrs[i] = err
			continue
		}
		for q := range qs {
			if s := o.streams[q]; s != nil {
				streams[q] = append(streams[q], s)
			} else if len(o.lists[q]) > 0 {
				lists[q] = append(lists[q], o.lists[q])
			}
		}
	}
	if len(shardErrs) == n {
		return nil, fmt.Errorf("cluster: all %d shards failed: %w", n, first)
	}
	out := make([]Result, len(qs))
	for q := range qs {
		var nbs []vsdb.Neighbor
		switch {
		case len(streams[q]) > 0:
			// Each entry's streams close right after its walk, so a batch
			// holds one entry's ranking scratch per shard at a time.
			var err error
			nbs, err = vsdb.MultiStep(ctx, streams[q], qs[q].K)
			closeEntry(q)
			if err != nil {
				return nil, err
			}
		case qs[q].Kind == vsdb.KNN:
			nbs = Merge(lists[q], qs[q].K)
		default:
			nbs = Merge(lists[q], -1)
		}
		out[q] = Result{Neighbors: nbs, Partial: shardErrs != nil, Errors: shardErrs}
	}
	return out, nil
}

// KNN returns the k nearest stored objects across all shards: Search of
// one exact KNN query.
func (c *DB) KNN(query [][]float64, k int) (Result, error) {
	return c.searchOne(vsdb.Query{Set: query, Kind: vsdb.KNN, K: k})
}

// Range returns all stored objects within eps of the query set: Search
// of one exact Range query.
func (c *DB) Range(query [][]float64, eps float64) (Result, error) {
	return c.searchOne(vsdb.Query{Set: query, Kind: vsdb.Range, Eps: eps})
}

func (c *DB) searchOne(q vsdb.Query) (Result, error) {
	rs, err := c.Search(context.Background(), []vsdb.Query{q})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// KNNBatch answers queries[i] exactly as KNN(queries[i], k) would, in
// one Search (a single pass over the shards for the whole batch).
func (c *DB) KNNBatch(queries [][][]float64, k int) ([]Result, error) {
	qs := make([]vsdb.Query, len(queries))
	for i, q := range queries {
		qs[i] = vsdb.Query{Set: q, Kind: vsdb.KNN, K: k}
	}
	return c.Search(context.Background(), qs)
}

// opened is what one shard's Open returned for a batch.
type opened struct {
	streams []*vsdb.Stream
	lists   [][]vsdb.Neighbor
}

// callSearch opens the batch on shard i under the retry loop, recording
// the shard's serving statistics.
func (c *DB) callSearch(ctx context.Context, i int, qs []vsdb.Query) (opened, error) {
	s := &c.shards[i]
	s.queries.Add(int64(len(qs)))
	start := time.Now()
	o, err := withRetries(ctx, c, i, OpSearch, func(ctx context.Context, db *vsdb.DB) (opened, error) {
		streams, lists, err := db.Open(ctx, qs)
		return opened{streams, lists}, err
	})
	if err != nil {
		if ctx.Err() == nil { // the caller's deadline is not the shard's failure
			s.errors.Add(1)
		}
		return opened{}, err
	}
	s.latNS.Add(time.Since(start).Nanoseconds())
	s.latN.Add(1)
	return o, nil
}

// callMut runs one shard mutation under the retry loop. A mutation is
// not cancellable once it runs, so it runs under no caller deadline: only
// the fault hook and the per-shard deadline bound its attempt. The shard's
// error gauge counts failures of the shard, not the caller's mistakes: a
// duplicate insert (vsdb.ErrExists) or a delete of an absent id
// (vsdb.ErrNotFound) is a correct refusal by a healthy shard. (Malformed
// sets are refused before any shard is touched.)
func (c *DB) callMut(i int, op Op, mut func(*vsdb.DB) error) error {
	s := &c.shards[i]
	_, err := withRetries(context.Background(), c, i, op, func(_ context.Context, db *vsdb.DB) (struct{}, error) {
		return struct{}{}, mut(db)
	})
	if err != nil && !errors.Is(err, vsdb.ErrExists) && !errors.Is(err, vsdb.ErrNotFound) {
		s.errors.Add(1)
	}
	return err
}

// withRetries attempts fn until it succeeds, the failure is permanent,
// the retry budget is spent or ctx ends, backing off exponentially
// between attempts. (A package-level generic because Go methods cannot
// carry type parameters; the result type ranges over what an attempt
// returns.)
func withRetries[T any](ctx context.Context, c *DB, i int, op Op, fn func(context.Context, *vsdb.DB) (T, error)) (T, error) {
	s := &c.shards[i]
	for att := 0; ; att++ {
		res, err := attemptShard(ctx, c, i, op, att, fn)
		if err == nil {
			return res, nil
		}
		if att >= c.cfg.retries() || !retryable(op, err) {
			return res, err
		}
		s.retries.Add(1)
		time.Sleep(c.cfg.backoff() << att)
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
	}
}

// attemptShard runs fn once against shard i, inline, under a per-shard
// deadline (Config.ShardTimeout) derived from ctx, consulting the fault
// policy first. Whichever deadline ends the attempt decides the error:
// the caller's is returned as ctx.Err(), the shard's as ErrShardTimeout
// (counted in the shard's status).
func attemptShard[T any](ctx context.Context, c *DB, i int, op Op, attempt int, fn func(context.Context, *vsdb.DB) (T, error)) (T, error) {
	var zero T
	db := c.shards[i].db.Load()
	if db == nil {
		return zero, fmt.Errorf("shard %d: %w", i, ErrShardDown)
	}
	if op.read() {
		// With follower reads enabled, a caught-up follower may serve
		// this attempt instead of the primary (identical results; see
		// readTarget). Mutations always run against the primary.
		db = c.readTarget(i, db)
	}
	timeout := c.cfg.shardTimeout()
	sctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var err error
	if f := c.cfg.Fault; f != nil {
		if ferr := f.Fault(sctx, i, op, attempt); ferr != nil {
			err = fmt.Errorf("shard %d: %w", i, &faultError{ferr})
		}
	}
	if err == nil && sctx.Err() == nil {
		var res T
		if res, err = fn(sctx, db); err == nil {
			return res, nil
		}
	}
	// The attempt failed or never ran; a deadline that has passed says why.
	switch {
	case ctx.Err() != nil:
		return zero, ctx.Err()
	case sctx.Err() != nil:
		c.shards[i].timeouts.Add(1)
		return zero, fmt.Errorf("shard %d: %w after %s", i, ErrShardTimeout, timeout)
	}
	return zero, err
}
