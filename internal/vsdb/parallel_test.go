package vsdb

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/voxset/voxset/internal/parallel"
)

// checkConcurrentCallers issues every query of qs alone against the one
// shared db, first in turn and then from callers goroutines at once: every
// concurrent answer must equal the sequential one, and the concurrent pass
// must add exactly callers times the sequential pass's signature prunes,
// refinements and matchings — a query runs on its caller's goroutine and
// settles the same candidates whoever else is querying. db must not be
// mutated or compacted meanwhile.
func checkConcurrentCallers(t *testing.T, db *DB, qs []Query, callers int) {
	t.Helper()
	counts := func() [3]int64 {
		st := db.Stats()
		return [3]int64{st.SignaturePruned, st.Refinements, st.Matchings}
	}
	before := counts()
	want := make([][]Neighbor, len(qs))
	for i := range qs {
		want[i] = one(db, qs[i])
	}
	seq := counts()
	parallel.Run(callers, func(c int) {
		for j := range qs {
			i := (j + c) % len(qs) // callers start at different queries
			if got := one(db, qs[i]); !slices.Equal(got, want[i]) {
				t.Errorf("caller %d, query %d (%v, K=%d, eps=%v, %+v): %v, want %v",
					c, i, qs[i].Kind, qs[i].K, qs[i].Eps, qs[i].Match, got, want[i])
			}
		}
	})
	conc := counts()
	for k, name := range []string{"signature-pruned", "refinements", "matchings"} {
		if s, c := seq[k]-before[k], conc[k]-seq[k]; c != int64(callers)*s {
			t.Errorf("%s: %d concurrent callers added %d, want %d× the sequential %d", name, callers, c, callers, s)
		}
	}
}

// TestConcurrentCallersParity: four goroutines issue mixed k-nn, range
// and partial-matching queries against one shared database — a
// memory-mapped snapshot, and a heap base carrying delta entries and
// tombstones — and each gets the sequential answer, with the sequential
// counter totals (run it under -race).
func TestConcurrentCallersParity(t *testing.T) {
	const callers = 4
	mixed := func(db *DB, sets [][][]float64) []Query {
		var qs []Query
		for i, set := range sets {
			knn := one(db, Query{Set: set, Kind: KNN, K: 10})
			qs = append(qs,
				Query{Set: set, Kind: KNN, K: 10},
				Query{Set: set, Kind: Range, Eps: knn[len(knn)-1].Dist},
				Query{Set: set, Kind: KNN, K: 5, Match: SetQuery{Partial: true, I: 1 + i%3}},
			)
		}
		return qs
	}
	for _, backing := range []string{"mmap", "mutated"} {
		t.Run(backing, func(t *testing.T) {
			db, sets := mutatedFixture(t, 1500, 64, 32, 8)
			defer db.Close()
			if backing == "mmap" {
				db.Compact()
				path := filepath.Join(t.TempDir(), "db.vsnap")
				if err := db.SaveFile(path); err != nil {
					t.Fatal(err)
				}
				mapped, err := OpenFile(path, LoadOptions{MaxDelta: noAutoCompact, CompactRatio: noAutoCompact})
				if err != nil {
					t.Fatal(err)
				}
				defer mapped.Close()
				if !mapped.Mapped() {
					t.Skip("snapshot not memory-mapped on this platform")
				}
				db = mapped
			}
			db.ResetRefinements()
			checkConcurrentCallers(t, db, mixed(db, sets), callers)
			if st := db.Stats(); st.SignaturePruned == 0 || st.Matchings >= st.Refinements {
				t.Fatalf("the signature stage or the kernel bound never fired: %+v", st)
			}
		})
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
	db, err := Open(Config{Dim: dim, MaxCard: card, MaxDelta: noAutoCompact, CompactRatio: noAutoCompact})
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
	want := search(db, qs)

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
