package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// TestMergedFunnelTiedLattice: the merged k-nn funnel answers byte for byte
// what one database holding the same objects answers, where that is
// hardest — equal distances at the k-th place falling on different shards.
// Objects are drawn with replacement from a small pool of integer-lattice
// sets under a power-of-two MaxCard, so every centroid, Lemma 2 bound and
// distance is exact and copies of one set tie exactly; hashing spreads the
// copies over the shards. It runs across {1, 2, 4} shards × {heap,
// mmap-opened} × {compacted, delta + tombstones}, each query issued by
// several concurrent callers while a mutator inserts and deletes objects
// far from every query (they pass through the streams, never the answers).
func TestMergedFunnelTiedLattice(t *testing.T) {
	const (
		dim, maxCard = 3, 4
		n, callers   = 240, 4
		farID        = 1 << 20
	)
	rng := rand.New(rand.NewSource(5))
	pool := make([][][]float64, 12)
	for i := range pool {
		pool[i] = make([][]float64, 1+rng.Intn(maxCard))
		for j := range pool[i] {
			pool[i][j] = []float64{float64(rng.Intn(5) - 2), float64(rng.Intn(5) - 2), float64(rng.Intn(5) - 2)}
		}
	}
	ids := make([]uint64, n)
	sets := make([][][]float64, n)
	for i := range ids {
		ids[i], sets[i] = uint64(i), pool[rng.Intn(len(pool))]
	}
	// Every pool set as a query, plus a few lattice sets outside the pool.
	queries := append([][][]float64(nil), pool...)
	for i := 0; i < 4; i++ {
		queries = append(queries, [][]float64{{float64(i - 2), 1, 0}, {0, float64(i - 1), 2}})
	}
	var batch []vsdb.Query
	for _, q := range queries {
		for _, k := range []int{1, 3, 10, 25} {
			batch = append(batch, vsdb.Query{Set: q, Kind: vsdb.KNN, K: k})
		}
	}
	far := [][]float64{{100, 100, 100}}

	// The delta + tombstones state: delete every fifth object, insert copies
	// of pool sets under new ids; no automatic compaction.
	mutate := func(insert func(uint64, [][]float64) error, del func(uint64) error) {
		for i := 0; i < n; i += 5 {
			if err := del(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 30; i++ {
			if err := insert(uint64(n+i), pool[i%len(pool)]); err != nil {
				t.Fatal(err)
			}
		}
	}

	crossShardTie := false
	for _, shards := range []int{1, 2, 4} {
		for _, backing := range []string{"heap", "mmap"} {
			for _, state := range []string{"compacted", "delta"} {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", shards, backing, state), func(t *testing.T) {
					cfg := cluster.Config{Shards: shards, Dim: dim, MaxCard: maxCard, MaxDelta: -1, CompactRatio: -1}
					one, err := vsdb.Open(vsdb.Config{Dim: dim, MaxCard: maxCard, MaxDelta: -1, CompactRatio: -1})
					if err != nil {
						t.Fatal(err)
					}
					c := newCluster(t, cfg)
					for _, bulk := range []func([]uint64, [][][]float64) error{one.BulkInsert, c.BulkInsert} {
						if err := bulk(ids, sets); err != nil {
							t.Fatal(err)
						}
					}
					if backing == "mmap" {
						dir := t.TempDir()
						if err := c.SaveDir(dir); err != nil {
							t.Fatal(err)
						}
						if c, err = cluster.LoadDir(dir, cfg); err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { c.Close() })
						for i := 0; i < shards; i++ {
							if !c.Shard(i).Mapped() {
								t.Skip("snapshot not memory-mapped on this platform")
							}
						}
					}
					if state == "delta" {
						mutate(one.Insert, one.Delete)
						mutate(c.Insert, c.Delete)
						if st := c.Stats(); st.DeltaLen == 0 || st.Tombstones == 0 {
							t.Fatalf("delta state: %+v", st)
						}
					}
					want := vsearch(one, batch)
					for i, q := range batch {
						full := vsearch(one, []vsdb.Query{{Set: q.Set, Kind: vsdb.KNN, K: one.Len()}})[0]
						if tiesAcrossShards(full, q.K, c) && len(want[i]) == q.K {
							crossShardTie = true
						}
					}

					var stop atomic.Bool
					var wg sync.WaitGroup
					mutErr := make(chan error, 1)
					wg.Add(1)
					go func() { // the mutator: far objects in and out of the delta
						defer wg.Done()
						for i := uint64(0); !stop.Load(); i++ {
							if err := c.Insert(farID+i, far); err != nil {
								mutErr <- err
								return
							}
							if i%2 == 1 {
								if err := c.Delete(farID + i - 1); err != nil {
									mutErr <- err
									return
								}
							}
						}
					}()
					errs := make(chan string, callers)
					var callersWG sync.WaitGroup
					for g := 0; g < callers; g++ {
						callersWG.Add(1)
						go func(g int) {
							defer callersWG.Done()
							for round := 0; round < 3; round++ {
								// The batch, then every entry alone, rotated by caller.
								res, err := c.Search(context.Background(), batch)
								if err != nil {
									errs <- err.Error()
									return
								}
								for i := range batch {
									if !reflect.DeepEqual(res[i].Neighbors, want[i]) {
										errs <- fmt.Sprintf("caller %d batch entry %d (k=%d):\n got %v\nwant %v", g, i, batch[i].K, res[i].Neighbors, want[i])
										return
									}
								}
								for j := range batch {
									i := (j + g*7) % len(batch)
									got, err := c.Search(context.Background(), batch[i:i+1])
									if err != nil {
										errs <- err.Error()
										return
									}
									if !reflect.DeepEqual(got[0].Neighbors, want[i]) {
										errs <- fmt.Sprintf("caller %d entry %d (k=%d) alone:\n got %v\nwant %v", g, i, batch[i].K, got[0].Neighbors, want[i])
										return
									}
								}
							}
						}(g)
					}
					callersWG.Wait()
					stop.Store(true)
					wg.Wait()
					close(errs)
					for e := range errs {
						t.Fatal(e)
					}
					select {
					case err := <-mutErr:
						t.Fatal(err)
					default:
					}
				})
			}
		}
	}
	if !crossShardTie {
		t.Fatal("no answer had an exact tie at the k-th place split across shards: the corpus does not exercise the funnel's tie rule")
	}
}

// tiesAcrossShards reports whether the k-th place of a complete ranking is
// an exact tie that the cut at k splits — a tied object inside the answer
// and one outside — with the tied objects on more than one shard.
func tiesAcrossShards(ranking []vsdb.Neighbor, k int, c *cluster.DB) bool {
	if k >= len(ranking) || ranking[k].Dist != ranking[k-1].Dist {
		return false
	}
	kth := ranking[k-1].Dist
	shards := map[int]bool{}
	for _, nb := range ranking {
		if nb.Dist == kth {
			shards[c.ShardOf(nb.ID)] = true
		}
	}
	return len(shards) > 1
}
