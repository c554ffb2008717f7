package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

// query is one probe set shared by the chaos assertions.
var chaosQuery = [][]float64{{0.1, -0.3, 0.7}}

// modelWithout builds the reference model holding every populated object
// except those owned by the named shard — the correct partial-mode
// answer when exactly that shard is down.
func modelWithout(c *cluster.DB, sets map[uint64][][]float64, downShard int) *vsdbtest.Model {
	m := vsdbtest.NewModel(testOmega)
	for id := uint64(1); id <= uint64(len(sets)); id++ {
		if c.ShardOf(id) != downShard {
			m.Insert(id, sets[id])
		}
	}
	return m
}

// A killed shard fails strict-mode queries with the mapped sentinel and
// names the shard; mutations routed to it fail the same way while other
// shards keep serving.
func TestChaosKillStrict(t *testing.T) {
	c := newCluster(t, testConfig(4))
	sets := populate(t, c, 40, 10)
	const down = 1
	if err := c.Kill(down); err != nil {
		t.Fatal(err)
	}
	_, err := c.KNN(chaosQuery, 5)
	if !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("strict knn against killed shard: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("shard %d", down)) {
		t.Fatalf("error does not name the shard: %v", err)
	}
	if _, err := c.Range(chaosQuery, 2); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("strict range against killed shard: %v", err)
	}
	if err := c.Compact(); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("compact with killed shard: %v", err)
	}
	// Mutations: owned by the dead shard → ErrShardDown; owned elsewhere
	// → served normally.
	var deadID, liveID uint64
	for id := uint64(1000); ; id++ {
		if c.ShardOf(id) == down && deadID == 0 {
			deadID = id
		}
		if c.ShardOf(id) != down && liveID == 0 {
			liveID = id
		}
		if deadID != 0 && liveID != 0 {
			break
		}
	}
	if err := c.Insert(deadID, sets[1]); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("insert to killed shard: %v", err)
	}
	if err := c.Insert(liveID, sets[1]); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st[down].Up || !st[0].Up {
		t.Fatalf("status after kill: %+v", st)
	}
	if c.Kill(down) == nil {
		t.Fatal("double kill accepted")
	}
}

// In partial mode the scatter survives a killed shard: the merged
// remainder is exactly the model over the surviving shards' objects,
// flagged Partial with the shard's error attached.
func TestChaosKillPartial(t *testing.T) {
	cfg := testConfig(4)
	cfg.Partial = true
	c := newCluster(t, cfg)
	sets := populate(t, c, 60, 11)
	const down = 2
	if err := c.Kill(down); err != nil {
		t.Fatal(err)
	}
	model := modelWithout(c, sets, down)
	res, err := c.KNN(chaosQuery, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("degraded result not flagged Partial")
	}
	if serr, ok := res.Errors[down]; !ok || !errors.Is(serr, cluster.ErrShardDown) {
		t.Fatalf("per-shard errors = %v", res.Errors)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("healthy shards reported errors: %v", res.Errors)
	}
	if d := vsdbtest.Diff(res.Neighbors, model.KNN(chaosQuery, 8)); d != "" {
		t.Fatalf("partial knn is not the surviving-shard merge: %s", d)
	}
	rres, err := c.Range(chaosQuery, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := vsdbtest.Diff(rres.Neighbors, model.Range(chaosQuery, 2.5)); d != "" {
		t.Fatalf("partial range is not the surviving-shard merge: %s", d)
	}
	// Killing everything leaves nothing to degrade to: partial mode
	// still errors when all shards fail.
	for i := 0; i < c.N(); i++ {
		if i != down {
			if err := c.Kill(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.KNN(chaosQuery, 3); err == nil || !strings.Contains(err.Error(), "all 4 shards") {
		t.Fatalf("all-shards-down query: %v", err)
	}
}

// shardFingerprint is the byte-exact durable state of one shard.
func shardFingerprint(t *testing.T, db *vsdb.DB) []byte {
	t.Helper()
	return vsdbtest.Fingerprint(t, db)
}

// Crash-reopen: a WAL-backed shard killed mid-life replays its log on
// Reopen to the exact pre-kill state — same snapshot bytes, same query
// results, and the cluster is whole again (Partial clears).
func TestChaosCrashReopenReplaysWAL(t *testing.T) {
	cfg := testConfig(3)
	cfg.Partial = true
	cfg.WALDir = t.TempDir()
	c := newCluster(t, cfg)
	populate(t, c, 45, 12)
	rng := rand.New(rand.NewSource(13))
	for id := uint64(1); id <= 45; id += 3 {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert(100, randSet(rng)); err != nil {
		t.Fatal(err)
	}

	const down = 0
	before := shardFingerprint(t, c.Shard(down))
	fullBefore, err := c.KNN(chaosQuery, 10)
	if err != nil || fullBefore.Partial {
		t.Fatalf("pre-kill query: %+v, %v", fullBefore, err)
	}
	if err := c.Kill(down); err != nil {
		t.Fatal(err)
	}
	if res, err := c.KNN(chaosQuery, 10); err != nil || !res.Partial {
		t.Fatalf("mid-kill query not partial: %+v, %v", res, err)
	}
	if err := c.Reopen(down); err != nil {
		t.Fatal(err)
	}
	after := shardFingerprint(t, c.Shard(down))
	if !bytes.Equal(before, after) {
		t.Fatalf("reopened shard fingerprint differs: %d vs %d bytes", len(before), len(after))
	}
	fullAfter, err := c.KNN(chaosQuery, 10)
	if err != nil || fullAfter.Partial {
		t.Fatalf("post-reopen query: %+v, %v", fullAfter, err)
	}
	if d := vsdbtest.Diff(fullAfter.Neighbors, fullBefore.Neighbors); d != "" {
		t.Fatalf("post-reopen results differ from pre-kill: %s", d)
	}
	// The reopened shard accepts and logs new mutations.
	var onDown uint64
	for id := uint64(2000); ; id++ {
		if c.ShardOf(id) == down {
			onDown = id
			break
		}
	}
	if err := c.Insert(onDown, randSet(rng)); err != nil {
		t.Fatal(err)
	}
	if c.Get(onDown) == nil {
		t.Fatal("post-reopen insert not visible")
	}
}

// A stalled shard costs the coordinator only the shard timeout: strict
// mode maps it to ErrShardTimeout, partial mode degrades around it.
func TestChaosStallTimeout(t *testing.T) {
	const down = 1
	var stalled atomic.Bool
	cfg := testConfig(3)
	cfg.ShardTimeout = 25 * time.Millisecond
	cfg.Retries = -1 // isolate the timeout path from retry behavior
	cfg.Fault = cluster.FaultFunc(func(ctx context.Context, shard int, op cluster.Op, attempt int) error {
		if stalled.Load() && shard == down {
			select {
			case <-ctx.Done():
			case <-time.After(250 * time.Millisecond):
			}
		}
		return nil
	})
	c := newCluster(t, cfg)
	sets := populate(t, c, 30, 14)
	stalled.Store(true)

	start := time.Now()
	_, err := c.KNN(chaosQuery, 5)
	if !errors.Is(err, cluster.ErrShardTimeout) {
		t.Fatalf("strict knn against stalled shard: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("stall leaked into the coordinator: took %v", elapsed)
	}
	c.SetPartial(true)
	res, err := c.KNN(chaosQuery, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !errors.Is(res.Errors[down], cluster.ErrShardTimeout) {
		t.Fatalf("partial result = %+v errors %v", res, res.Errors)
	}
	if d := vsdbtest.Diff(res.Neighbors, modelWithout(c, sets, down).KNN(chaosQuery, 8)); d != "" {
		t.Fatalf("stall-degraded knn wrong: %s", d)
	}
	if c.Status()[down].Timeouts == 0 {
		t.Fatal("timeout not counted in shard status")
	}
	stalled.Store(false)
	if res, err := c.KNN(chaosQuery, 5); err != nil || res.Partial {
		t.Fatalf("recovered query: %+v, %v", res, err)
	}
}

// Injected faults are retried with backoff — a fault that clears after
// the first attempt is invisible to the caller, and the retry is
// counted. This holds for mutations too: an injected fault fires before
// the operation runs, so retrying cannot double-apply.
func TestChaosRetryAfterInjectedFault(t *testing.T) {
	injected := errors.New("flaky disk")
	var remaining atomic.Int64
	cfg := testConfig(2)
	cfg.Backoff = time.Millisecond
	cfg.Fault = cluster.FaultFunc(func(_ context.Context, shard int, op cluster.Op, attempt int) error {
		if remaining.Add(-1) >= 0 {
			return injected
		}
		return nil
	})
	c := newCluster(t, cfg)
	sets := populate(t, c, 20, 15)

	remaining.Store(1) // first attempt fails, retry succeeds
	res, err := c.KNN(chaosQuery, 4)
	if err != nil {
		t.Fatalf("query with one transient fault: %v", err)
	}
	if res.Partial {
		t.Fatal("recovered query flagged Partial")
	}
	var retries int64
	for _, st := range c.Status() {
		retries += st.Retries
	}
	if retries == 0 {
		t.Fatal("retry not counted in shard status")
	}
	// A mutation behind a transient injected fault also succeeds, exactly
	// once.
	remaining.Store(1)
	if err := c.Insert(500, sets[1]); err != nil {
		t.Fatalf("insert with one transient fault: %v", err)
	}
	if c.Get(500) == nil {
		t.Fatal("retried insert not applied")
	}
	// A fault outliving the retry budget surfaces, wrapped, with the
	// original error reachable through errors.Is.
	remaining.Store(1 << 30)
	if _, err := c.KNN(chaosQuery, 4); !errors.Is(err, injected) {
		t.Fatalf("exhausted retries: %v", err)
	}
}

// A timed-out mutation is NOT retried: a deadline may fire after the
// shard applied it, so a retry could double-apply. Reads retry freely (re-reading
// an immutable view is idempotent).
func TestChaosMutationTimeoutNotRetried(t *testing.T) {
	var stallMut atomic.Bool
	var attempts atomic.Int64
	cfg := testConfig(2)
	cfg.ShardTimeout = 15 * time.Millisecond
	cfg.Retries = 3
	cfg.Backoff = time.Millisecond
	cfg.Fault = cluster.FaultFunc(func(ctx context.Context, shard int, op cluster.Op, attempt int) error {
		if op == cluster.OpInsert && stallMut.Load() {
			attempts.Add(1)
			select {
			case <-ctx.Done():
			case <-time.After(150 * time.Millisecond):
			}
		}
		return nil
	})
	c := newCluster(t, cfg)
	rng := rand.New(rand.NewSource(16))
	stallMut.Store(true)
	if err := c.Insert(1, randSet(rng)); !errors.Is(err, cluster.ErrShardTimeout) {
		t.Fatalf("stalled insert: %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("stalled mutation attempted %d times, want exactly 1 (no retry)", got)
	}
}
