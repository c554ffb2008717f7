package filter

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/parallel"
)

// callers is how many goroutines the tests below run queries from at once
// against one shared index: a query runs on its caller's goroutine, so
// concurrent callers are where an index meets concurrency (run them under
// -race).
const callers = 8

func buildIndex(sets [][][]float64, k, dim int) *Index {
	ix := New(Config{K: k, Dim: dim})
	for i, s := range sets {
		ix.Add(s, i)
	}
	return ix
}

// TestParallelKNNMatchesSequential pins the engine's core guarantee under
// concurrency: k-nn queries issued by concurrent callers of one index
// answer exactly what the same queries answer one at a time, on several
// seeded datasets.
func TestParallelKNNMatchesSequential(t *testing.T) {
	const K, D = 7, 6
	for _, seed := range []int64{1, 2, 3} {
		sets := randSets(seed, 300, K, D)
		ix := buildIndex(sets, K, D)
		rng := rand.New(rand.NewSource(seed + 100))
		qs, ks := make([][][]float64, 10), make([]int, 10)
		want := make([][]index.Neighbor, len(qs))
		for i := range qs {
			qs[i], ks[i] = sets[rng.Intn(len(sets))], 1+rng.Intn(20)
			want[i] = ix.KNN(qs[i], ks[i])
		}
		parallel.Run(callers, func(c int) {
			for i := range qs {
				j := (i + c) % len(qs) // callers start at different queries
				if got := ix.KNN(qs[j], ks[j]); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("seed %d caller %d query %d k=%d: concurrent %v != sequential %v",
						seed, c, j, ks[j], got, want[j])
				}
			}
		})
	}
}

// TestParallelRangeMatchesSequential does the same for ε-range queries.
func TestParallelRangeMatchesSequential(t *testing.T) {
	const K, D = 5, 6
	for _, seed := range []int64{1, 2, 3} {
		sets := randSets(seed, 250, K, D)
		ix := buildIndex(sets, K, D)
		rng := rand.New(rand.NewSource(seed + 200))
		qs, eps := make([][][]float64, 10), make([]float64, 10)
		want := make([][]index.Neighbor, len(qs))
		for i := range qs {
			qs[i], eps[i] = sets[rng.Intn(len(sets))], 5+rng.Float64()*20
			want[i] = ix.Range(qs[i], eps[i])
		}
		parallel.Run(callers, func(c int) {
			for i := range qs {
				j := (i + c) % len(qs)
				if got := ix.Range(qs[j], eps[j]); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("seed %d caller %d query %d eps=%v: concurrent %v != sequential %v",
						seed, c, j, eps[j], got, want[j])
				}
			}
		})
	}
}

// TestKNNTieBreakDeterministic indexes the same vector set under many
// ids, so every candidate is at the same distance from the query: the
// k-nn must return the lowest ids.
func TestKNNTieBreakDeterministic(t *testing.T) {
	const K, D = 3, 6
	set := [][]float64{{1, 2, 3, 4, 5, 6}, {2, 3, 4, 5, 6, 7}}
	sets := make([][][]float64, 20)
	for i := range sets {
		sets[i] = set
	}
	got := buildIndex(sets, K, D).KNN(set, 5)
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for i, nb := range got {
		if nb.ID != i {
			t.Errorf("rank %d has id %d, want %d (lowest ids win ties)", i, nb.ID, i)
		}
		if nb.Dist != 0 {
			t.Errorf("rank %d dist = %v, want 0", i, nb.Dist)
		}
	}
}

// TestParallelRefinementCounter checks the atomic counters survive
// concurrent callers: every query refines and solves exactly what it does
// alone, so callers running the same 10-nn count callers times the
// sequential totals.
func TestParallelRefinementCounter(t *testing.T) {
	const K, D = 7, 6
	sets := randSets(9, 400, K, D)
	ix := buildIndex(sets, K, D)
	ix.KNN(sets[0], 10)
	refined, solved := ix.Refinements(), ix.Matchings()
	if refined < 10 || refined > int64(len(sets)) {
		t.Fatalf("10-nn refined %d objects out of %d", refined, len(sets))
	}
	ix.ResetRefinements()
	parallel.Run(callers, func(int) { ix.KNN(sets[0], 10) })
	if r, m := ix.Refinements(), ix.Matchings(); r != callers*refined || m != callers*solved {
		t.Errorf("%d concurrent 10-nn refined/solved %d/%d, want %d× the sequential %d/%d",
			callers, r, m, callers, refined, solved)
	}
}
