package experiments

import (
	"fmt"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

// TestClusterParity212 is the sharded acceptance criterion: over the
// full 212-part dataset (car 200 + aircraft 12), every shards ∈ {1,2,4}
// cluster answers k-nn and ε-range queries bit-identically to the
// unsharded database built from the same extraction — to each of
// workers=N concurrent callers (the label the caller count kept from the
// days when it counted refinement workers).
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
	ref, err := BuildVectorSetDB(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := ref.IDs()[:16]
	var wantKNN, wantRange [][]vsdb.Neighbor
	for _, id := range queries {
		wantKNN = append(wantKNN, ref.KNN(ref.Get(id), 10))
		wantRange = append(wantRange, ref.Range(ref.Get(id), 1.5))
	}

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c, err := BuildClusterDBWith(e, cluster.Config{Shards: shards}, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if c.Len() != ref.Len() {
					t.Fatalf("cluster holds %d objects, reference %d", c.Len(), ref.Len())
				}
				if msg := vsdbtest.Concurrently(workers, func() string {
					for qi, id := range queries {
						q := ref.Get(id)
						knn, err := c.KNN(q, 10)
						if d := resultDiff(knn, err, wantKNN[qi]); d != "" {
							return fmt.Sprintf("id %d knn: %s", id, d)
						}
						rng, err := c.Range(q, 1.5)
						if d := resultDiff(rng, err, wantRange[qi]); d != "" {
							return fmt.Sprintf("id %d range: %s", id, d)
						}
					}
					return ""
				}); msg != "" {
					t.Fatal(msg)
				}
			})
		}
	}
}

// resultDiff describes how a fault-free cluster answer departs from the
// reference list, bit for bit, or returns "".
func resultDiff(res cluster.Result, err error, want []vsdb.Neighbor) string {
	if err != nil {
		return err.Error()
	}
	if res.Partial {
		return "fault-free query reported partial"
	}
	return vsdbtest.Diff(res.Neighbors, want)
}
