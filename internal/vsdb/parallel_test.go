package vsdb

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestDistanceChecked(t *testing.T) {
	db := openTestDB(t)
	a := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	b := [][]float64{{0, 0, 0, 0}}
	got, err := db.DistanceChecked(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := db.Distance(a, b); got != want {
		t.Errorf("DistanceChecked = %v, Distance = %v", got, want)
	}
	if _, err := db.DistanceChecked(a, [][]float64{{1, 2}}); err == nil {
		t.Error("ragged input (mixed dims across sets) must error")
	}
	if _, err := db.DistanceChecked([][]float64{{1}, {1, 2, 3, 4}}, b); err == nil {
		t.Error("ragged input (mixed dims within a set) must error")
	}
}

func TestWorkersParity(t *testing.T) {
	seq, err := Open(Config{Dim: 4, MaxCard: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Open(Config{Dim: 4, MaxCard: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	sets := make([][][]float64, 200)
	for i := range sets {
		sets[i] = randSet(rng, 1+rng.Intn(5), 4)
		if err := seq.Insert(uint64(i), sets[i]); err != nil {
			t.Fatal(err)
		}
		if err := par.Insert(uint64(i), sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 8; trial++ {
		q := sets[rng.Intn(len(sets))]
		if got, want := par.KNN(q, 7), seq.KNN(q, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: parallel knn %v != sequential %v", trial, got, want)
		}
		eps := 10 + rng.Float64()*40
		if got, want := par.Range(q, eps), seq.Range(q, eps); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: parallel range %v != sequential %v", trial, got, want)
		}
	}
}

// TestConcurrentQueriesAcrossCompact: eight goroutines query one database
// — sharing its base's ranking scratch pool — while a writer inserts,
// deletes and compacts, so in-flight rankings straddle the swap to a new
// base and its new pool. The mutated objects sit far from every query, so
// each answer must stay exactly the quiescent one; the race detector
// watches the scratch.
func TestConcurrentQueriesAcrossCompact(t *testing.T) {
	const dim, card, n, readers = 6, 5, 800, 8
	db, err := Open(Config{Dim: dim, MaxCard: card, Workers: 1, MaxDelta: noAutoCompact, CompactRatio: noAutoCompact})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	ids := make([]uint64, n)
	sets := make([][][]float64, n)
	for i := range sets {
		ids[i], sets[i] = uint64(i), randSet(rng, 1+rng.Intn(card), dim)
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, 16)
	for i := range qs {
		qs[i] = Query{Set: sets[i*7], Kind: KNN, K: 10}
		if i%4 == 3 {
			qs[i] = Query{Set: sets[i*7], Kind: Range, Eps: 30}
		}
	}
	want := db.Search(qs)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				if got := one(db, q); !reflect.DeepEqual(got, want[i%len(qs)]) {
					t.Errorf("reader %d, query %d: answer changed under compaction\n got %v\nwant %v", r, i%len(qs), got, want[i%len(qs)])
					return
				}
			}
		}(r)
	}
	far := func() [][]float64 {
		s := randSet(rng, 1+rng.Intn(card), dim)
		for _, v := range s {
			v[0] += 1e4
		}
		return s
	}
	for round := 0; round < 12; round++ {
		for j := 0; j < 8; j++ {
			if err := db.Insert(uint64(n+round*8+j), far()); err != nil {
				t.Error(err)
			}
		}
		if round > 0 {
			if err := db.Delete(uint64(n + (round-1)*8)); err != nil {
				t.Error(err)
			}
		}
		db.Compact()
	}
	close(stop)
	wg.Wait()
}
