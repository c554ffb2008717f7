package cluster_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// TestMalformedQueryRefused: a malformed entry — a non-finite coordinate,
// an empty set, one over MaxCard, a wrong dimension, a bad k or ε — fails
// Search with an error naming the entry, through a database, a Single
// cluster over one and a 3-shard cluster alike, within a second (an
// infinite coordinate once spun in the matching solver, a NaN one
// answered nothing, a wrong dimension panicked). The cluster refuses it
// before it opens any shard.
func TestMalformedQueryRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db, err := vsdb.Open(vsdb.Config{Dim: 3, MaxCard: 3, Omega: testOmega})
	if err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	cfg := testConfig(3)
	cfg.Fault = cluster.FaultFunc(func(_ context.Context, _ int, op cluster.Op, _ int) error {
		if op == cluster.OpSearch {
			opened.Add(1)
		}
		return nil
	})
	sharded := newCluster(t, cfg)
	for id := uint64(1); id <= 200; id++ {
		set := randSet(rng)
		if err := db.Insert(id, set); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Insert(id, set); err != nil {
			t.Fatal(err)
		}
	}
	single := cluster.Single(db)
	t.Cleanup(func() { single.Close() })

	knn := func(set [][]float64, k int) vsdb.Query { return vsdb.Query{Set: set, Kind: vsdb.KNN, K: k} }
	rng3 := func(set [][]float64, eps float64) vsdb.Query { return vsdb.Query{Set: set, Kind: vsdb.Range, Eps: eps} }
	ok := [][]float64{{0.1, -0.2, 0.3}}
	cases := []struct {
		name string
		q    vsdb.Query
		is   error // the sentinel the error must wrap, if any
	}{
		{"+Inf coordinate", knn([][]float64{{0, math.Inf(1), 0}}, 5), vsdb.ErrNonFinite},
		{"-Inf coordinate", knn([][]float64{{0, 0, 0}, {math.Inf(-1), 1, 1}}, 5), vsdb.ErrNonFinite},
		{"NaN coordinate", knn([][]float64{{math.NaN(), 0, 0}}, 5), vsdb.ErrNonFinite},
		{"+Inf coordinate, range", rng3([][]float64{{0, math.Inf(1), 0}}, 2), vsdb.ErrNonFinite},
		{"NaN coordinate, partial", vsdb.Query{Set: [][]float64{{0, math.NaN(), 0}}, Kind: vsdb.KNN, K: 3, Match: vsdb.SetQuery{Partial: true}}, vsdb.ErrNonFinite},
		{"empty set", knn(nil, 5), nil},
		{"over MaxCard", knn([][]float64{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}}, 5), nil},
		{"wrong dimension", knn([][]float64{{0, 0, 0}, {1, 1}}, 5), nil},
		{"k = 0", knn(ok, 0), nil},
		{"k < 0", knn(ok, -3), nil},
		{"eps NaN", rng3(ok, math.NaN()), nil},
		{"eps < 0", rng3(ok, -1), nil},
		{"eps +Inf", rng3(ok, math.Inf(1)), nil},
	}
	entries := map[string]func(context.Context, []vsdb.Query) error{
		"vsdb": func(ctx context.Context, qs []vsdb.Query) error {
			_, err := db.Search(ctx, qs)
			return err
		},
		"single": func(ctx context.Context, qs []vsdb.Query) error {
			_, err := single.Search(ctx, qs)
			return err
		},
		"3-shard": func(ctx context.Context, qs []vsdb.Query) error {
			_, err := sharded.Search(ctx, qs)
			return err
		},
	}
	for _, tc := range cases {
		for name, search := range entries {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			done := make(chan error, 1)
			go func() { done <- search(ctx, []vsdb.Query{knn(ok, 3), tc.q}) }()
			select {
			case err := <-done:
				switch {
				case err == nil:
					t.Errorf("%s, %s: accepted", name, tc.name)
				case ctx.Err() != nil:
					t.Errorf("%s, %s: ran until the deadline: %v", name, tc.name, err)
				case tc.is != nil && !errors.Is(err, tc.is):
					t.Errorf("%s, %s: %v, want %v", name, tc.name, err, tc.is)
				case !strings.Contains(err.Error(), "query 1"):
					t.Errorf("%s, %s: error does not name entry 1: %v", name, tc.name, err)
				}
			case <-time.After(time.Second):
				t.Fatalf("%s, %s: no answer within 1 s", name, tc.name)
			}
			cancel()
		}
	}
	if n := opened.Load(); n != 0 {
		t.Fatalf("malformed batches opened shards %d times", n)
	}
}

// stallSearch returns a fault policy that, while on is set, stalls every
// search attempt on shard until its deadline passes.
func stallSearch(on *atomic.Bool, shard int) cluster.FaultPolicy {
	return cluster.FaultFunc(func(ctx context.Context, s int, op cluster.Op, _ int) error {
		if on.Load() && s == shard && op == cluster.OpSearch {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
}

// TestStalledQueryLeaksNothing: an attempt runs on the caller's goroutine,
// so a strict query against a stalled shard leaves no goroutine behind
// once it has returned ErrShardTimeout — the goroutine count comes back to
// where it was.
func TestStalledQueryLeaksNothing(t *testing.T) {
	var stalled atomic.Bool
	cfg := testConfig(3)
	cfg.ShardTimeout = 20 * time.Millisecond
	cfg.Retries = 1
	cfg.Backoff = time.Millisecond
	cfg.Fault = stallSearch(&stalled, 1)
	c := newCluster(t, cfg)
	populate(t, c, 30, 3)
	baseline := runtime.NumGoroutine()
	stalled.Store(true)
	for i := 0; i < 5; i++ {
		if _, err := c.KNN(chaosQuery, 5); !errors.Is(err, cluster.ErrShardTimeout) {
			t.Fatalf("strict knn against a stalled shard: %v", err)
		}
	}
	// A fired deadline's timer callback may still be finishing.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the stalled queries, %d before", n, baseline)
	}
}

// TestCallerDeadlineEndsSearch: when the caller's own context ends — not
// a shard's deadline — Search returns ctx.Err(), neither retrying nor
// degrading to a partial answer, and counts no shard timeout.
func TestCallerDeadlineEndsSearch(t *testing.T) {
	var stalled atomic.Bool
	var attempts atomic.Int64
	cfg := testConfig(2)
	cfg.Partial = true
	cfg.Retries = 3
	cfg.Fault = cluster.FaultFunc(func(ctx context.Context, s int, op cluster.Op, _ int) error {
		if stalled.Load() && op == cluster.OpSearch {
			attempts.Add(1)
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	c := newCluster(t, cfg)
	populate(t, c, 20, 4)
	stalled.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Search(ctx, []vsdb.Query{{Set: chaosQuery, Kind: vsdb.KNN, K: 3}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search past the caller's deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("search outlived the caller's deadline by %v", elapsed)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("%d attempts, want 1 (no retry, no further shard)", n)
	}
	for _, st := range c.Status() {
		if st.Timeouts != 0 {
			t.Fatalf("shard %d counted the caller's deadline as a shard timeout", st.Shard)
		}
	}
}

// TestSingleAdoptsDatabase: a Single cluster answers what its database
// answers, routes mutations to it, and refuses Kill and Reopen — it knows
// no durable state to recover the caller's database from.
func TestSingleAdoptsDatabase(t *testing.T) {
	db, err := vsdb.Open(vsdb.Config{Dim: 3, MaxCard: 3, Omega: testOmega})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Single(db)
	t.Cleanup(func() { c.Close() })
	sets := populate(t, c, 40, 5)
	if db.Len() != len(sets) || c.Epoch() != db.Epoch() || c.N() != 1 {
		t.Fatalf("single cluster: %d objects in db, epoch %d vs %d, %d shards", db.Len(), c.Epoch(), db.Epoch(), c.N())
	}
	res, err := c.KNN(chaosQuery, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := db.KNN(chaosQuery, 7); len(want) != 7 || !equalNeighbors(res.Neighbors, want) {
		t.Fatalf("single cluster knn %v, database %v", res.Neighbors, want)
	}
	if err := c.Kill(0); err == nil {
		t.Fatal("Kill of a Single cluster's shard accepted")
	}
	if err := c.Reopen(0); err == nil {
		t.Fatal("Reopen of a Single cluster's shard accepted")
	}
	if c.Shard(0) != db {
		t.Fatal("the refused Kill dropped the database")
	}
}

func equalNeighbors(a, b []vsdb.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
