package cluster

import (
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
// Faults, retries, timeouts and follower reads apply to the opening
// attempt (callSearch); the streams are walked afterwards on the calling
// goroutine. Degradation is per call, not per entry: in strict mode the
// first shard failure fails the whole Search and the shards after it are
// not opened; in partial mode a failed shard is missing from every entry
// alike, so all results of one call share one Partial flag and one Errors
// map. Each opened shard's query counter advances by len(qs) — it counts
// logical queries, not visits.
func (c *DB) Search(qs []vsdb.Query) ([]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	n := len(c.shards)
	partial := c.partial.Load()
	// Per entry, what each opened shard gave: a stream for an exact k-nn
	// entry, the complete list for any other.
	streams := make([][]*vsdb.Stream, len(qs))
	lists := make([][][]vsdb.Neighbor, len(qs))
	closeAll := func() {
		for _, ss := range streams {
			for _, s := range ss {
				s.Close()
			}
		}
	}
	var shardErrs map[int]error
	var first error
	for i := 0; i < n; i++ {
		o, err := c.callSearch(i, qs)
		if err != nil {
			if !partial {
				closeAll()
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
			nbs = vsdb.MultiStep(streams[q], qs[q].K)
			for _, s := range streams[q] {
				s.Close()
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
	rs, err := c.Search([]vsdb.Query{q})
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
	return c.Search(qs)
}

// opened is what one shard's Open returned for a batch.
type opened struct {
	streams []*vsdb.Stream
	lists   [][]vsdb.Neighbor
}

// callSearch opens the batch on shard i under the retry loop, recording
// the shard's serving statistics.
func (c *DB) callSearch(i int, qs []vsdb.Query) (opened, error) {
	s := &c.shards[i]
	s.queries.Add(int64(len(qs)))
	start := time.Now()
	o, err := withRetries(c, i, OpSearch, func(db *vsdb.DB) (opened, error) {
		streams, lists := db.Open(qs)
		return opened{streams, lists}, nil
	})
	if err != nil {
		s.errors.Add(1)
		return opened{}, err
	}
	s.latNS.Add(time.Since(start).Nanoseconds())
	s.latN.Add(1)
	return o, nil
}

// callMut runs one shard mutation under the retry loop.
func (c *DB) callMut(i int, op Op, mut func(*vsdb.DB) error) error {
	s := &c.shards[i]
	_, err := withRetries(c, i, op, func(db *vsdb.DB) (struct{}, error) {
		return struct{}{}, mut(db)
	})
	if err != nil {
		s.errors.Add(1)
	}
	return err
}

// withRetries attempts fn until it succeeds, the failure is permanent,
// or the retry budget is spent, backing off exponentially between
// attempts. (A package-level generic because Go methods cannot carry
// type parameters; the result type ranges over single and batch
// neighbor lists.)
func withRetries[T any](c *DB, i int, op Op, fn func(*vsdb.DB) (T, error)) (T, error) {
	s := &c.shards[i]
	var err error
	for att := 0; ; att++ {
		var res T
		res, err = attemptShard(c, i, op, att, fn)
		if err == nil {
			return res, nil
		}
		if att >= c.cfg.retries() || !retryable(op, err) {
			var zero T
			return zero, err
		}
		s.retries.Add(1)
		time.Sleep(c.cfg.backoff() << att)
	}
}

// attemptShard runs fn once against shard i under the per-shard
// timeout, consulting the fault policy first. The attempt executes on
// its own goroutine so a stalled shard (a blocking fault, a
// pathological query) costs the coordinator only the timeout; the
// abandoned goroutine finishes against the shard's immutable view and
// is discarded.
func attemptShard[T any](c *DB, i int, op Op, attempt int, fn func(*vsdb.DB) (T, error)) (T, error) {
	var zero T
	s := &c.shards[i]
	db := s.db.Load()
	if db == nil {
		return zero, fmt.Errorf("shard %d: %w", i, ErrShardDown)
	}
	if op.read() {
		// With follower reads enabled, a caught-up follower may serve
		// this attempt instead of the primary (identical results; see
		// readTarget). Mutations always run against the primary.
		db = c.readTarget(i, db)
	}
	type outcome struct {
		res T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		if f := c.cfg.Fault; f != nil {
			if ferr := f.Fault(i, op, attempt); ferr != nil {
				ch <- outcome{zero, fmt.Errorf("shard %d: %w", i, &faultError{ferr})}
				return
			}
		}
		res, err := fn(db)
		ch <- outcome{res, err}
	}()
	timeout := c.cfg.shardTimeout()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		s.timeouts.Add(1)
		return zero, fmt.Errorf("shard %d: %w after %s", i, ErrShardTimeout, timeout)
	}
}
