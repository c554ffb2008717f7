package filter

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/vectorset"
)

// sigCorpus draws n sets with replacement from a pool of integer-lattice
// sets (max(60, n/4) of them): equal sets tie exactly at distance 0 and
// lattice distances tie often, at the k-th place and at ε, where a stage
// that pruned "equal" instead of only "strictly greater" would change an
// answer.
func sigCorpus(seed int64, n, maxCard, dim int) (pool, sets [][][]float64) {
	rng := rand.New(rand.NewSource(seed))
	pool = make([][][]float64, max(60, n/4))
	for i := range pool {
		pool[i] = make([][]float64, 1+rng.Intn(maxCard))
		for j := range pool[i] {
			v := make([]float64, dim)
			for c := range v {
				v[c] = float64(rng.Intn(5) - 2)
			}
			pool[i][j] = v
		}
	}
	sets = make([][][]float64, n)
	for i := range sets {
		sets[i] = pool[rng.Intn(len(pool))]
	}
	return pool, sets
}

// TestSignatureStageDifferential: with the signature stage in the loop,
// a Cursor under MultiStep, k-nn and ε-range, on a store-backed index
// still answers byte for byte like a brute-force scan with the unbounded
// distance — K = 7 and 8, with and without a liveness predicate, at k
// and ε chosen on exact ties — at sizes around the block boundary (0, 1,
// 63, 64, 65) and at 10 000 objects; and the stage fires.
func TestSignatureStageDifferential(t *testing.T) {
	const D = 6
	dead := func(id int) bool { return id%5 == 0 }
	for _, K := range []int{7, 8} {
		for _, n := range []int{0, 1, 63, 64, 65, 10_000} {
			pool, sets := sigCorpus(int64(100*K+n), n, K, D)
			flats := make([]vectorset.Flat, n)
			ids := make([]int, n)
			for i, s := range sets {
				flats[i], ids[i] = vectorset.FlatFromRows(s), i
			}
			queries := pool[:6]
			brute := make([][]index.Neighbor, len(queries))
			for qi, q := range queries {
				for i, s := range sets {
					brute[qi] = append(brute[qi], index.Neighbor{ID: i, Dist: dist.MatchingDistance(q, s, dist.L2, dist.WeightNorm)})
				}
				index.SortNeighbors(brute[qi])
			}
			ix := bulkFromFlats(t, Config{K: K, Dim: D}, flats, ids)
			for _, live := range []func(int) bool{nil, func(id int) bool { return !dead(id) }} {
				ctx := fmt.Sprintf("K=%d n=%d live=%v", K, n, live != nil)
				for qi, q := range queries {
					var all []index.Neighbor
					for _, nb := range brute[qi] {
						if live == nil || live(nb.ID) {
							all = append(all, nb)
						}
					}
					qf := vectorset.FlatFromRows(q)
					for _, k := range []int{1, 10, 50} {
						want := all[:min(k, len(all))]
						if got := knnStreams(qf, k, live, ix); !reflect.DeepEqual(got, want) && len(want)+len(got) > 0 {
							t.Fatalf("%s query %d: knn k=%d\n got %v\nwant %v", ctx, qi, k, got, want)
						}
					}
					for _, at := range []int{0, 9, 49} {
						if at >= len(all) {
							continue
						}
						eps := all[at].Dist
						m := sort.Search(len(all), func(i int) bool { return all[i].Dist > eps })
						if got := rangeStreams(qf, eps, live, ix); !reflect.DeepEqual(got, all[:m]) {
							t.Fatalf("%s query %d: range eps=%v\n got %v\nwant %v", ctx, qi, eps, got, all[:m])
						}
					}
				}
			}
			if n == 10_000 && ix.SignaturePruned() == 0 {
				t.Fatalf("K=%d n=%d: the signature stage never fired", K, n)
			}
		}
	}
}

// TestSignatureFirstTouchConcurrent: queries racing to build the same
// signature blocks on a fresh index (run it under -race) answer exactly what a
// sequential pass over another fresh index answers, and count the same
// signature prunes: the layout is built once, each block is encoded once,
// and a query that meets either being built waits for it.
func TestSignatureFirstTouchConcurrent(t *testing.T) {
	const K, D, n, queries = 7, 6, 2000, 32
	pool, sets := sigCorpus(5, n, K, D)
	flats := make([]vectorset.Flat, n)
	ids := make([]int, n)
	for i, s := range sets {
		flats[i], ids[i] = vectorset.FlatFromRows(s), i
	}
	cfg := Config{K: K, Dim: D}
	ref := bulkFromFlats(t, cfg, flats, ids)
	want := make([][]index.Neighbor, queries)
	for i := range want {
		want[i] = ref.KNNFlat(vectorset.FlatFromRows(pool[i]), 10)
	}
	ix := bulkFromFlats(t, cfg, flats, ids)
	got := make([][]index.Neighbor, queries)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = ix.KNNFlat(vectorset.FlatFromRows(pool[i]), 10)
		}(i)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent first-touch answers differ from sequential ones")
	}
	if ix.SignaturePruned() != ref.SignaturePruned() || ix.SignaturePruned() == 0 {
		t.Fatalf("signature prunes: concurrent %d, sequential %d", ix.SignaturePruned(), ref.SignaturePruned())
	}
}
