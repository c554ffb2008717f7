package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// Batch-vs-sequential oracle at the coordinator: a k-nn or range batch
// must answer entry i byte-identically to KNN/Range with queries[i],
// across shard widths — the single fan-out is a transport optimization,
// never a semantic one — and workers=N concurrent callers issuing the same
// batches must get the same lists.
func TestClusterBatchParity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c := newCluster(t, testConfig(shards))
				populate(t, c, 80, 31)
				for id := uint64(5); id <= 40; id += 5 {
					if err := c.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(37))
				queries := make([][][]float64, 25)
				for i := range queries {
					queries[i] = randSet(rng)
				}
				const k = 7
				batch, err := c.KNNBatch(queries, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != len(queries) {
					t.Fatalf("KNNBatch returned %d results for %d queries", len(batch), len(queries))
				}
				var eps float64
				for i, q := range queries {
					single, err := c.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if batch[i].Partial || batch[i].Errors != nil {
						t.Fatalf("query %d: fault-free batch reported partial", i)
					}
					if len(single.Neighbors) > 0 {
						eps = single.Neighbors[len(single.Neighbors)/2].Dist
					}
					assertSameResult(t, fmt.Sprintf("KNN query %d", i), batch[i], single)
				}

				ranges := batchOf(queries, vsdb.Query{Kind: vsdb.Range, Eps: eps})
				rBatch, err := c.Search(context.Background(), ranges)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					single, err := c.Range(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, fmt.Sprintf("Range query %d", i), rBatch[i], single)
				}
				if msg := concurrentSearch(c, batchOf(queries, vsdb.Query{Kind: vsdb.KNN, K: k}), batch, workers); msg != "" {
					t.Fatalf("KNN batch: %s", msg)
				}
				if msg := concurrentSearch(c, ranges, rBatch, workers); msg != "" {
					t.Fatalf("Range batch: %s", msg)
				}

				empty, err := c.KNNBatch(nil, k)
				if err != nil || empty != nil {
					t.Fatalf("empty batch = %v, %v", empty, err)
				}
			})
		}
	}
}

// A dead shard must degrade a batch exactly as it degrades the same
// queries issued one by one: identical surviving neighbors in partial
// mode, an error naming the shard in strict mode.
func TestClusterBatchShardFailure(t *testing.T) {
	var armed atomic.Bool
	bad := cluster.FaultFunc(func(_ context.Context, shard int, op cluster.Op, attempt int) error {
		if armed.Load() && shard == 0 {
			return errors.New("injected")
		}
		return nil
	})
	for _, partial := range []bool{false, true} {
		t.Run(fmt.Sprintf("partial=%v", partial), func(t *testing.T) {
			armed.Store(false)
			cfg := testConfig(4)
			cfg.Partial = partial
			cfg.Fault = bad
			cfg.Retries = -1 // the injected fault is permanent; don't wait it out
			c := newCluster(t, cfg)
			populate(t, c, 60, 41)
			armed.Store(true)

			rng := rand.New(rand.NewSource(43))
			queries := make([][][]float64, 8)
			for i := range queries {
				queries[i] = randSet(rng)
			}
			batch, err := c.KNNBatch(queries, 5)
			if !partial {
				if err == nil {
					t.Fatal("strict mode: batch with a failing shard must error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				single, err := c.KNN(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !batch[i].Partial || batch[i].Errors[0] == nil {
					t.Fatalf("query %d: batch result not flagged partial with shard 0 error", i)
				}
				assertSameResult(t, fmt.Sprintf("degraded query %d", i), batch[i], single)
			}
		})
	}
}

func assertSameResult(t *testing.T, label string, got, want cluster.Result) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got.Neighbors), len(want.Neighbors))
	}
	for j := range got.Neighbors {
		if got.Neighbors[j] != want.Neighbors[j] {
			t.Fatalf("%s: neighbor %d = %+v, want %+v", label, j, got.Neighbors[j], want.Neighbors[j])
		}
	}
}
