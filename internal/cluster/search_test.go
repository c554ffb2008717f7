package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

// searchOne answers a single query through the coordinator's Search.
func searchOne(c *cluster.DB, q vsdb.Query) (cluster.Result, error) {
	rs, err := c.Search(context.Background(), []vsdb.Query{q})
	if err != nil {
		return cluster.Result{}, err
	}
	return rs[0], nil
}

// concurrentSearch issues qs from callers concurrent callers of c at once
// and returns the first caller's mismatch against want — lists and
// Partial flags — or "".
func concurrentSearch(c *cluster.DB, qs []vsdb.Query, want []cluster.Result, callers int) string {
	return vsdbtest.Concurrently(callers, func() string {
		got, err := c.Search(context.Background(), qs)
		if err != nil {
			return err.Error()
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Neighbors, want[i].Neighbors) || got[i].Partial != want[i].Partial {
				return fmt.Sprintf("entry %d: a concurrent caller got %v (partial %v), want %v (partial %v)",
					i, got[i].Neighbors, got[i].Partial, want[i].Neighbors, want[i].Partial)
			}
		}
		return ""
	})
}

// batchOf stamps proto onto every set: a homogeneous batch.
func batchOf(sets [][][]float64, proto vsdb.Query) []vsdb.Query {
	qs := make([]vsdb.Query, len(sets))
	for i, set := range sets {
		qs[i] = proto
		qs[i].Set = set
	}
	return qs
}

// TestClusterSearchParity: one heterogeneous Search — mixed K, Range,
// partial matching at several I — answers every entry byte for byte as
// the same query issued alone at the same epochs, across shard widths,
// with base, delta and tombstone layers live, and workers=N concurrent
// callers issuing the same batch get the same lists. With a shard failing
// in partial mode the degraded batch must equal the degraded singles too,
// and every entry must share the call's Partial/Errors. The subtests keep
// the "approx=false" label of the days when an approximate tier ran beside
// them, and "workers" of the days when it counted refinement workers, so
// their names stay comparable across history.
func TestClusterSearchParity(t *testing.T) {
	var armed atomic.Bool
	fault := cluster.FaultFunc(func(_ context.Context, shard int, op cluster.Op, attempt int) error {
		if armed.Load() && shard == 0 && op == cluster.OpSearch {
			return errors.New("injected")
		}
		return nil
	})
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("approx=false/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				armed.Store(false)
				cfg := testConfig(shards)
				cfg.Partial = true
				cfg.Fault = fault
				cfg.Retries = -1 // the injected fault is permanent; don't wait it out
				c := newCluster(t, cfg)
				rng := rand.New(rand.NewSource(61))
				ids := make([]uint64, 240)
				sets := make([][][]float64, len(ids))
				for i := range ids {
					ids[i], sets[i] = uint64(i+1), randSet(rng)
				}
				if err := c.BulkInsert(ids, sets); err != nil { // base layer
					t.Fatal(err)
				}
				for id := uint64(241); id <= 270; id++ { // delta layer
					if err := c.Insert(id, randSet(rng)); err != nil {
						t.Fatal(err)
					}
				}
				for id := uint64(7); id <= 140; id += 7 { // tombstones
					if err := c.Delete(id); err != nil {
						t.Fatal(err)
					}
				}

				var qs []vsdb.Query
				for i := 0; i < 5; i++ {
					set := randSet(rng)
					near, err := c.KNN(set, 15)
					if err != nil {
						t.Fatal(err)
					}
					eps := near.Neighbors[14].Dist
					qs = append(qs,
						vsdb.Query{Set: set, Kind: vsdb.KNN, K: 2 + 5*i},
						vsdb.Query{Set: set, Kind: vsdb.Range, Eps: eps},
						vsdb.Query{Set: set, Kind: vsdb.KNN, K: 4 + i, Match: vsdb.SetQuery{Partial: true, I: i % 3}},
						vsdb.Query{Set: set, Kind: vsdb.Range, Eps: eps / 4, Match: vsdb.SetQuery{Partial: true, I: 1 + i%2}},
					)
				}

				check := func(label string, wantPartial bool) {
					t.Helper()
					got, err := c.Search(context.Background(), qs)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(got) != len(qs) {
						t.Fatalf("%s: %d results for %d queries", label, len(got), len(qs))
					}
					for i, q := range qs {
						want, err := searchOne(c, q)
						if err != nil {
							t.Fatalf("%s entry %d: %v", label, i, err)
						}
						if !reflect.DeepEqual(got[i].Neighbors, want.Neighbors) {
							t.Fatalf("%s entry %d (%+v): batch %v, alone %v", label, i, q, got[i].Neighbors, want.Neighbors)
						}
						if got[i].Partial != wantPartial || (got[i].Errors[0] != nil) != wantPartial || len(got[i].Errors) != len(want.Errors) {
							t.Fatalf("%s entry %d: Partial=%v Errors=%v, want partial=%v like the single (%v)",
								label, i, got[i].Partial, got[i].Errors, wantPartial, want.Errors)
						}
					}
					if msg := concurrentSearch(c, qs, got, workers); msg != "" {
						t.Fatalf("%s: %s", label, msg)
					}
				}
				check("healthy", false)
				if shards > 1 { // with one shard, losing it is an all-shards failure
					armed.Store(true)
					check("shard 0 failing", true)
				}
			})
		}
	}
}
