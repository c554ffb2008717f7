package cluster_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// testOmega weights the three voxel-grid features the way the paper's
// experiments do; every cluster test and its reference model share it so
// distances are bit-identical.
var testOmega = []float64{0.25, -0.5, 1.0}

func testConfig(shards int) cluster.Config {
	return cluster.Config{Shards: shards, Dim: 3, MaxCard: 3, Omega: testOmega}
}

func newCluster(t *testing.T, cfg cluster.Config) *cluster.DB {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// vsearch is vsdb.DB.Search under a context that never ends, for
// well-formed batches: an error is a test bug.
func vsearch(db *vsdb.DB, qs []vsdb.Query) [][]vsdb.Neighbor {
	out, err := db.Search(context.Background(), qs)
	if err != nil {
		panic(err)
	}
	return out
}

// randSet draws a valid random vector set for the test configuration.
func randSet(rng *rand.Rand) [][]float64 {
	set := make([][]float64, 1+rng.Intn(3))
	for i := range set {
		set[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return set
}

// populate inserts n random objects with ids 1..n and returns their sets.
func populate(t *testing.T, c *cluster.DB, n int, seed int64) map[uint64][][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sets := make(map[uint64][][]float64, n)
	for id := uint64(1); id <= uint64(n); id++ {
		sets[id] = randSet(rng)
		if err := c.Insert(id, sets[id]); err != nil {
			t.Fatal(err)
		}
	}
	return sets
}

func TestConfigValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Config{Shards: 0, Dim: 3, MaxCard: 3}); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	if _, err := cluster.New(cluster.Config{Shards: 2, Dim: 0, MaxCard: 3}); err == nil {
		t.Fatal("Dim=0 accepted")
	}
}

// Routing must be a pure function of (id, N): stable across cluster
// instances (it decides where persisted objects live) and reasonably
// balanced.
func TestShardRouting(t *testing.T) {
	a := newCluster(t, testConfig(4))
	b := newCluster(t, testConfig(4))
	counts := make([]int, 4)
	for id := uint64(0); id < 4000; id++ {
		s := a.ShardOf(id)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%d) = %d out of range", id, s)
		}
		if got := b.ShardOf(id); got != s {
			t.Fatalf("ShardOf(%d) differs across instances: %d vs %d", id, s, got)
		}
		counts[s]++
	}
	for s, n := range counts {
		// fnv over 4000 uniform ids: each shard expects ~1000.
		if n < 700 || n > 1300 {
			t.Fatalf("shard %d owns %d of 4000 ids (imbalanced routing): %v", s, n, counts)
		}
	}
}

func TestMutationsRouteToOwningShard(t *testing.T) {
	c := newCluster(t, testConfig(4))
	sets := populate(t, c, 64, 1)
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64", c.Len())
	}
	perShard := 0
	for i := 0; i < c.N(); i++ {
		perShard += c.Shard(i).Len()
	}
	if perShard != 64 {
		t.Fatalf("shard lengths sum to %d, want 64", perShard)
	}
	for id, set := range sets {
		// The object must live on exactly its routed shard.
		owner := c.ShardOf(id)
		for i := 0; i < c.N(); i++ {
			got := c.Shard(i).Get(id)
			if (got != nil) != (i == owner) {
				t.Fatalf("id %d found on shard %d, owner is %d", id, i, owner)
			}
		}
		if got := c.Get(id); len(got) != len(set) {
			t.Fatalf("Get(%d) = %v, want %v", id, got, set)
		}
	}
	// Conflicts surface the vsdb sentinels through the routing layer.
	if err := c.Insert(7, sets[7]); !errors.Is(err, vsdb.ErrExists) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := c.Delete(9999); !errors.Is(err, vsdb.ErrNotFound) {
		t.Fatalf("missing delete: %v", err)
	}
	if err := c.Delete(7); err != nil {
		t.Fatal(err)
	}
	if c.Get(7) != nil || c.Len() != 63 {
		t.Fatal("delete not visible through the coordinator")
	}
}

// The cluster epoch is the sum of shard epochs: monotone, advancing by
// exactly one per mutation, so serving layers can key caches on it.
func TestEpochSumsShards(t *testing.T) {
	c := newCluster(t, testConfig(3))
	if c.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", c.Epoch())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 1; i <= 20; i++ {
		if err := c.Insert(uint64(i), randSet(rng)); err != nil {
			t.Fatal(err)
		}
		if c.Epoch() != uint64(i) {
			t.Fatalf("epoch after %d inserts = %d", i, c.Epoch())
		}
	}
	if err := c.Delete(5); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 21 {
		t.Fatalf("epoch after delete = %d, want 21", c.Epoch())
	}
}

func TestBulkInsertValidatesBeforeTouchingShards(t *testing.T) {
	c := newCluster(t, testConfig(4))
	rng := rand.New(rand.NewSource(3))
	good := func() [][]float64 { return randSet(rng) }
	if err := c.Insert(50, good()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ids  []uint64
		sets [][][]float64
		want string
	}{
		{"length mismatch", []uint64{1, 2}, [][][]float64{good()}, "ids"},
		{"in-batch duplicate", []uint64{1, 1}, [][][]float64{good(), good()}, "duplicated"},
		{"already live", []uint64{1, 50}, [][][]float64{good(), good()}, "already present"},
		{"empty set", []uint64{1}, [][][]float64{{}}, "empty"},
		{"over cardinality", []uint64{1}, [][][]float64{{good()[0], good()[0], good()[0], good()[0]}}, "cardinality"},
		{"wrong dim", []uint64{1}, [][][]float64{{{1, 2}}}, "dim"},
	}
	for _, tc := range cases {
		err := c.BulkInsert(tc.ids, tc.sets)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if c.Len() != 1 || c.Epoch() != 1 {
			t.Fatalf("%s: rejected batch mutated the cluster (len=%d epoch=%d)", tc.name, c.Len(), c.Epoch())
		}
	}
	// A valid batch lands whole, partitioned across shards.
	ids := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	sets := make([][][]float64, len(ids))
	for i := range sets {
		sets[i] = good()
	}
	if err := c.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 9 {
		t.Fatalf("Len = %d, want 9", c.Len())
	}
}

func TestCompactFoldsEveryShard(t *testing.T) {
	c := newCluster(t, testConfig(3))
	populate(t, c, 48, 4)
	for id := uint64(1); id <= 24; id++ {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().TombstoneRatio == 0 && c.Stats().DeltaLen == 0 {
		t.Fatal("deletes left no folding work (test is vacuous)")
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().TombstoneRatio; got != 0 {
		t.Fatalf("tombstone ratio after compact = %g", got)
	}
	if got := c.Stats().DeltaLen; got != 0 {
		t.Fatalf("delta length after compact = %d", got)
	}
	if c.Stats().Compactions < 3 {
		t.Fatalf("compactions = %d, want ≥ 3 (one per shard)", c.Stats().Compactions)
	}
	if c.Len() != 24 {
		t.Fatalf("Len = %d, want 24", c.Len())
	}
}

func TestStatusReportsEveryShard(t *testing.T) {
	c := newCluster(t, testConfig(4))
	populate(t, c, 32, 5)
	if _, err := c.KNN([][]float64{{0, 0, 0}}, 5); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if len(st) != 4 {
		t.Fatalf("status has %d shards", len(st))
	}
	objects, queries := 0, int64(0)
	for i, s := range st {
		if s.Shard != i || !s.Up {
			t.Fatalf("status[%d] = %+v", i, s)
		}
		objects += s.Objects
		queries += s.Queries
	}
	if objects != 32 {
		t.Fatalf("status objects sum to %d", objects)
	}
	if queries != 4 {
		t.Fatalf("status queries sum to %d, want 4 (one scatter per shard)", queries)
	}
}
