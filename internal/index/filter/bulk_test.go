package filter

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// NewBulkStore (the snapshot-open and compaction path: rank the store's
// centroid column, refine in place) must answer every query byte for byte
// like an index built by sequential Add calls — with centroids computed
// for the store and with the ones the incremental index holds (what a
// snapshot persists), over every object and under a liveness predicate.
func TestNewBulkMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, dim, k = 120, 4, 5
	sets := make([][][]float64, n)
	ids := make([]int, n)
	for i := range sets {
		card := 1 + rng.Intn(k)
		set := make([][]float64, card)
		for j := range set {
			set[j] = make([]float64, dim)
			for d := range set[j] {
				set[j][d] = rng.NormFloat64()
			}
		}
		sets[i] = set
		ids[i] = i * 2
	}
	lives := map[string]func(int) bool{"all": nil, "live": func(id int) bool { return id%6 != 0 }}
	cfg := Config{K: k, Dim: dim}
	inc := New(cfg)
	for i, set := range sets {
		inc.Add(set, ids[i])
	}
	flats := make([]vectorset.Flat, n)
	var cents []float64
	for i, set := range sets {
		flats[i] = vectorset.FlatFromRows(set)
		cents = append(cents, inc.Centroid(i)...)
	}
	for _, withCents := range []bool{false, true} {
		bulk := bulkFromFlats(t, cfg, flats, ids)
		if withCents {
			var err error
			if bulk, err = NewBulkStore(cfg, &memStore{sets: flats, cents: cents}, ids, StoreBuildOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 10; qi++ {
			q := flats[rng.Intn(n)]
			for name, live := range lives {
				ctx := fmt.Sprintf("withCents=%v %s query %d", withCents, name, qi)
				a, b := knnStreams(q, 9, live, inc), knnStreams(q, 9, live, bulk)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: KNN\n add  %+v\n bulk %+v", ctx, a, b)
				}
				eps := a[len(a)/2].Dist
				if ra, rb := rangeStreams(q, eps, live, inc), rangeStreams(q, eps, live, bulk); !reflect.DeepEqual(ra, rb) {
					t.Fatalf("%s: Range(%v)\n add  %+v\n bulk %+v", ctx, eps, ra, rb)
				}
			}
		}
	}
}

func TestNewBulkEmpty(t *testing.T) {
	ix := bulkFromFlats(t, Config{K: 3, Dim: 2}, nil, nil)
	if ix.Len() != 0 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if got := ix.KNN([][]float64{{1, 2}}, 3); got != nil {
		t.Fatalf("KNN on empty bulk index = %v", got)
	}
}
