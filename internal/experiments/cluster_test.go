package experiments

import (
	"fmt"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// TestClusterParity212 is the sharded acceptance criterion: over the
// full 212-part dataset (car 200 + aircraft 12), every (shards ∈ {1,2,4}
// × workers ∈ {1,4}) cluster answers k-nn and ε-range queries
// bit-identically to the unsharded database built from the same
// extraction.
func TestClusterParity212(t *testing.T) {
	skipIfShort(t)
	parts := append(Car.Parts(7, 0), Aircraft.Parts(7, 12)...)
	if len(parts) != 212 {
		t.Fatalf("dataset has %d parts, want 212", len(parts))
	}
	// One extraction feeds every engine: the comparison must isolate
	// sharding, not rebuild noise.
	e, err := BuildParallel(smallCfg(), parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildVectorSetDB(e, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := ref.IDs()[:16]

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c, err := BuildClusterDBWith(e, cluster.Config{Shards: shards}, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if c.Len() != ref.Len() {
					t.Fatalf("cluster holds %d objects, reference %d", c.Len(), ref.Len())
				}
				for _, id := range queries {
					q := ref.Get(id)
					knn, err := c.KNN(q, 10)
					assertSameNeighbors(t, id, "knn", mustQuery(t, knn, err), ref.KNN(q, 10))
					rng, err := c.Range(q, 1.5)
					assertSameNeighbors(t, id, "range", mustQuery(t, rng, err), ref.Range(q, 1.5))
				}
			})
		}
	}
}

func mustQuery(t *testing.T, res cluster.Result, err error) cluster.Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("fault-free query reported partial")
	}
	return res
}

func assertSameNeighbors(t *testing.T, id uint64, kind string, got cluster.Result, want []vsdb.Neighbor) {
	t.Helper()
	if len(got.Neighbors) != len(want) {
		t.Fatalf("id %d %s: %d neighbors, reference %d", id, kind, len(got.Neighbors), len(want))
	}
	for i := range want {
		if got.Neighbors[i] != want[i] {
			t.Fatalf("id %d %s: neighbor %d = %+v, reference %+v (not bit-identical)",
				id, kind, i, got.Neighbors[i], want[i])
		}
	}
}
