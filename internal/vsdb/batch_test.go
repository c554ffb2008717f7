package vsdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/voxset/voxset/internal/parallel"
)

// Batch-vs-sequential oracle: KNNBatch and a Range batch must answer every
// entry byte-identically to the corresponding single query, against a
// database with all three layers live (compacted base, delta memtable,
// tombstones) — and so must the same batches issued by workers=N
// concurrent callers at once.
func TestBatchMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			db, err := Open(Config{Dim: 4, MaxCard: 5})
			if err != nil {
				t.Fatal(err)
			}
			for id := uint64(1); id <= 120; id++ {
				if err := db.Insert(id, randSet(rng, 1+rng.Intn(5), 4)); err != nil {
					t.Fatal(err)
				}
			}
			db.Compact() // 1..120 into the base layer
			for id := uint64(121); id <= 150; id++ {
				if err := db.Insert(id, randSet(rng, 1+rng.Intn(5), 4)); err != nil {
					t.Fatal(err)
				}
			}
			for id := uint64(1); id <= 15; id++ { // tombstones over the base
				if err := db.Delete(id * 7); err != nil {
					t.Fatal(err)
				}
			}

			queries := make([][][]float64, 40)
			for i := range queries {
				queries[i] = randSet(rng, 1+rng.Intn(5), 4)
			}
			const k = 9
			batch := db.KNNBatch(queries, k)
			if len(batch) != len(queries) {
				t.Fatalf("KNNBatch returned %d lists for %d queries", len(batch), len(queries))
			}
			var eps float64
			for i, q := range queries {
				want := db.KNN(q, k)
				if len(want) > 0 {
					eps = want[len(want)/2].Dist
				}
				assertSameNeighbors(t, fmt.Sprintf("KNN query %d", i), batch[i], want)
			}

			ranges := batchOf(queries, Query{Kind: Range, Eps: eps})
			rBatch := search(db, ranges)
			if len(rBatch) != len(queries) {
				t.Fatalf("Range batch returned %d lists for %d queries", len(rBatch), len(queries))
			}
			for i, q := range queries {
				assertSameNeighbors(t, fmt.Sprintf("Range query %d", i), rBatch[i], db.Range(q, eps))
			}

			parallel.Run(workers, func(c int) {
				for i, got := range db.KNNBatch(queries, k) {
					if !slices.Equal(got, batch[i]) {
						t.Errorf("caller %d, KNN query %d: %v, want %v", c, i, got, batch[i])
					}
				}
				for i, got := range search(db, ranges) {
					if !slices.Equal(got, rBatch[i]) {
						t.Errorf("caller %d, Range query %d: %v, want %v", c, i, got, rBatch[i])
					}
				}
			})

			if got := db.KNNBatch(nil, k); len(got) != 0 {
				t.Fatalf("empty batch returned %d lists", len(got))
			}
		})
	}
}

func assertSameNeighbors(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] { // exact: same id, bit-identical distance
			t.Fatalf("%s: neighbor %d = %+v, want %+v", label, j, got[j], want[j])
		}
	}
}
