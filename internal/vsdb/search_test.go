package vsdb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/parallel"
)

// search is Search under a context that never ends, for well-formed
// batches: an error is a test bug.
func search(db *DB, qs []Query) [][]Neighbor {
	out, err := db.Search(context.Background(), qs)
	if err != nil {
		panic(err)
	}
	return out
}

// one answers a single query through Search.
func one(db *DB, q Query) []Neighbor { return search(db, []Query{q})[0] }

// batchOf stamps proto onto every set: a homogeneous batch.
func batchOf(sets [][][]float64, proto Query) []Query {
	qs := make([]Query, len(sets))
	for i, set := range sets {
		qs[i] = proto
		qs[i].Set = set
	}
	return qs
}

// TestSearchParity: one heterogeneous batch — mixed K, Range, partial
// matching at several I — answers every entry byte for byte as the same
// query issued alone at the same epoch, with all three layers live
// (base, delta memtable, tombstones), and workers=N concurrent callers
// issuing the same batch get the same lists. The subtests keep the
// "approx=false" label of the days when an approximate tier ran beside
// them, and "workers" of the days when it counted refinement workers, so
// their names stay comparable across history.
func TestSearchParity(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("approx=false/workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			db, err := Open(Config{Dim: 4, MaxCard: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ids := make([]uint64, 200)
			sets := make([][][]float64, len(ids))
			for i := range ids {
				ids[i], sets[i] = uint64(i+1), randSet(rng, 1+rng.Intn(5), 4)
			}
			if err := db.BulkInsert(ids, sets); err != nil {
				t.Fatal(err)
			}
			for id := uint64(201); id <= 230; id++ {
				if err := db.Insert(id, randSet(rng, 1+rng.Intn(5), 4)); err != nil {
					t.Fatal(err)
				}
			}
			for id := uint64(1); id <= 12; id++ {
				if err := db.Delete(id * 9); err != nil {
					t.Fatal(err)
				}
			}

			var qs []Query
			for i := 0; i < 6; i++ {
				set := randSet(rng, 1+rng.Intn(5), 4)
				eps := db.KNN(set, 12)[11].Dist
				qs = append(qs,
					Query{Set: set, Kind: KNN, K: 3 + 4*i},
					Query{Set: set, Kind: Range, Eps: eps},
					Query{Set: set, Kind: KNN, K: 5 + i, Match: SetQuery{Partial: true, I: i % 4}},
					Query{Set: set, Kind: Range, Eps: eps / 4, Match: SetQuery{Partial: true, I: 1 + i%3}},
				)
			}
			qs = append(qs, Query{Set: qs[0].Set, Kind: KNN, K: 10000})

			got := search(db, qs)
			if len(got) != len(qs) {
				t.Fatalf("Search returned %d lists for %d queries", len(got), len(qs))
			}
			for i, q := range qs {
				if want := one(db, q); !reflect.DeepEqual(got[i], want) {
					t.Fatalf("entry %d (%+v): batch %v, alone %v", i, q, got[i], want)
				}
			}
			if len(got[len(got)-1]) != db.Len() {
				t.Fatalf("K past the corpus gave %d of %d", len(got[len(got)-1]), db.Len())
			}
			parallel.Run(workers, func(c int) {
				if again := search(db, qs); !reflect.DeepEqual(again, got) {
					t.Errorf("caller %d: a concurrent Search of the same batch answered differently", c)
				}
			})
			if got := search(db, nil); len(got) != 0 {
				t.Fatalf("empty batch returned %d lists", len(got))
			}
		})
	}
}
