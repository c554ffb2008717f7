package filter

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/vectorset"
)

// latticeCorpus draws n sets with replacement from a small pool of
// integer-coordinate sets: distances are sums of square roots of small
// integers, so equal sets tie exactly — at the k-th place and at ε —
// which is where a bounded kernel that dropped "equal" instead of only
// "strictly greater" would change an answer. Under a power-of-two K the
// extended centroids and the Lemma 2 bound are exact too; under K = 7 the
// centroid divides by 7 and the computed bound of a card-1 pair can land
// an ulp above its distance, so a bare bound > threshold in the centroid
// stage would round a tie away before the kernel sees it — what
// vectorset.BoundExceeds is for.
func latticeCorpus(seed int64, n, maxCard, dim int) [][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][][]float64, 60)
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
	sets := make([][][]float64, n)
	for i := range sets {
		sets[i] = pool[rng.Intn(len(pool))]
	}
	return sets
}

// knnStreams is a k-nn over the union of the indexes: MultiStep over one
// Cursor per index, each skipping what live rejects.
func knnStreams(q vectorset.Flat, k int, live func(int) bool, ixs ...*Index) []index.Neighbor {
	return walkStreams(q, k, math.Inf(1), live, ixs)
}

// rangeStreams is the ε-range form of knnStreams: no cap on the answer,
// the threshold held at eps.
func rangeStreams(q vectorset.Flat, eps float64, live func(int) bool, ixs ...*Index) []index.Neighbor {
	return walkStreams(q, math.MaxInt, eps, live, ixs)
}

func walkStreams(q vectorset.Flat, k int, threshold float64, live func(int) bool, ixs []*Index) []index.Neighbor {
	streams := make([]Stream, len(ixs))
	for i, ix := range ixs {
		c := ix.Cursor(q, k, live)
		defer c.Close()
		streams[i] = c
	}
	out, err := MultiStep(context.Background(), streams, k, threshold)
	if err != nil {
		panic(err) // a background context never ends
	}
	return out
}

// TestBoundedRefinementDifferential: the loop (MultiStep over cursors),
// which hands its threshold to the ranking and to the matching kernel,
// answers k-nn and ε-range queries byte for byte like a brute-force scan
// with the unbounded distance — through the X-tree and through the
// centroid column, with and without a liveness predicate, at k and ε
// chosen on exact ties, under a power-of-two K and under K = 7. The same
// objects split across three indexes (position mod 3), walked by one
// MultiStep over three cursors, answer the same k-nn and ε-range: equal
// distances at the k-th place and at ε then sit in different streams.
func TestBoundedRefinementDifferential(t *testing.T) {
	const D, parts = 6, 3
	dead := func(id int) bool { return id%5 == 0 }
	for _, K := range []int{8, 7} {
		sets := latticeCorpus(41, 400, K, D)
		flats := make([]vectorset.Flat, len(sets))
		ids := make([]int, len(sets))
		for i, s := range sets {
			flats[i], ids[i] = vectorset.FlatFromRows(s), i
		}
		cfg := Config{K: K, Dim: D}
		tree := New(cfg)
		split := map[string][]*Index{}
		for p := 0; p < parts; p++ {
			part := New(cfg)
			var pf []vectorset.Flat
			var pids []int
			for i := p; i < len(sets); i += parts {
				part.Add(sets[i], i)
				pf, pids = append(pf, flats[i]), append(pids, i)
			}
			split["tree"] = append(split["tree"], part)
			split["column"] = append(split["column"], bulkFromFlats(t, cfg, pf, pids))
		}
		for i, s := range sets {
			tree.Add(s, i)
		}
		for name, ix := range map[string]*Index{"tree": tree, "column": bulkFromFlats(t, cfg, flats, ids)} {
			for _, live := range []func(int) bool{nil, func(id int) bool { return !dead(id) }} {
				for qi := 0; qi < 25; qi++ {
					q := sets[qi*7%len(sets)]
					var all []index.Neighbor
					for i, s := range sets {
						if live == nil || live(i) {
							all = append(all, index.Neighbor{ID: i, Dist: dist.MatchingDistance(q, s, dist.L2, dist.WeightNorm)})
						}
					}
					index.SortNeighbors(all)
					ctx := fmt.Sprintf("K=%d %s live=%v query=%d", K, name, live != nil, qi)
					qf := vectorset.FlatFromRows(q)
					for _, k := range []int{1, 5, 10, 50} {
						if got := knnStreams(qf, k, live, ix); !reflect.DeepEqual(got, all[:k]) {
							t.Fatalf("%s: knn k=%d\n got %v\nwant %v", ctx, k, got, all[:k])
						}
						if got := knnStreams(qf, k, live, split[name]...); !reflect.DeepEqual(got, all[:k]) {
							t.Fatalf("%s: knn k=%d over %d streams\n got %v\nwant %v", ctx, k, parts, got, all[:k])
						}
					}
					for _, at := range []int{0, 9, 49} {
						eps := all[at].Dist
						n := sort.Search(len(all), func(i int) bool { return all[i].Dist > eps })
						if got := rangeStreams(qf, eps, live, ix); !reflect.DeepEqual(got, all[:n]) {
							t.Fatalf("%s: range eps=%v\n got %v\nwant %v", ctx, eps, got, all[:n])
						}
						if got := rangeStreams(qf, eps, live, split[name]...); !reflect.DeepEqual(got, all[:n]) {
							t.Fatalf("%s: range eps=%v over %d streams\n got %v\nwant %v", ctx, eps, parts, got, all[:n])
						}
					}
				}
			}
			if ix.Matchings() >= ix.Refinements() {
				t.Fatalf("K=%d %s: %d matchings for %d refinements: the kernel bound never fired", K, name, ix.Matchings(), ix.Refinements())
			}
		}
	}
}

// TestGenericPathStaysUnbounded: an index without FastL2 (explicit
// Ground/Weight) solves every candidate it refines, as documented on
// exact.
func TestGenericPathStaysUnbounded(t *testing.T) {
	const K, D = 5, 6
	sets := randSets(5, 200, K, D)
	ix := New(Config{K: K, Dim: D, Ground: dist.L2, Weight: dist.WeightNorm})
	for i, s := range sets {
		ix.Add(s, i)
	}
	ix.KNN(sets[3], 10)
	if ix.Refinements() == 0 || ix.Matchings() != ix.Refinements() {
		t.Fatalf("generic path: %d matchings for %d refinements, want equal", ix.Matchings(), ix.Refinements())
	}
}

// BenchmarkFilterKNN is the engine-level price of one k = 10 query over
// 10 000 sets (1 250 parts × 8 jittered copies, the shape of the served
// corpus), with the three counters that explain it: signature-pruned/op,
// the candidates past the centroid filter that the signature bound
// settled unfetched; refined/op, the candidates handed to the kernel; and
// solves/op, the Hungarian solves left after the kernel's assignment
// bound. A regression to always-solve shows as solves/op == refined/op.
// /store is what every server runs — NewBulkStore, ranking the centroid
// column, with the signature stage; /dynamic is the paper's path — New +
// Add, ranking through the X-tree, without it. The centroid filter lets
// the same candidates through to both.
func BenchmarkFilterKNN(b *testing.B) {
	const K, D, parts, copies = 7, 6, 1250, 8
	rng := rand.New(rand.NewSource(7))
	cfg := Config{K: K, Dim: D}
	var flats, queries []vectorset.Flat
	var ids []int
	jitter := func(set [][]float64) vectorset.Flat {
		out := make([][]float64, len(set))
		for i, v := range set {
			out[i] = make([]float64, D)
			for c := range v {
				out[i][c] = v[c] + rng.NormFloat64()*0.5
			}
		}
		return vectorset.FlatFromRows(out)
	}
	for p, part := range randSets(8, parts, K, D) {
		for c := 0; c < copies; c++ {
			flats = append(flats, jitter(part))
			ids = append(ids, p*copies+c)
		}
		queries = append(queries, jitter(part)) // 1 250 distinct queries
	}
	dynamic := New(cfg)
	for i, f := range flats {
		dynamic.Add(f.Rows(), ids[i])
	}
	for _, bc := range []struct {
		name string
		ix   *Index
	}{{"store", bulkFromFlats(b, cfg, flats, ids)}, {"dynamic", dynamic}} {
		b.Run(bc.name, func(b *testing.B) {
			ix := bc.ix
			ix.ResetRefinements()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := ix.KNNFlat(queries[i%len(queries)], 10); len(got) != 10 {
					b.Fatalf("%d neighbors", len(got))
				}
			}
			b.ReportMetric(float64(ix.SignaturePruned())/float64(b.N), "signature-pruned/op")
			b.ReportMetric(float64(ix.Refinements())/float64(b.N), "refined/op")
			b.ReportMetric(float64(ix.Matchings())/float64(b.N), "solves/op")
		})
	}
}
