package filter

import (
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// NewBulkStore (STR bulk load from a store's centroids, the snapshot-open
// and compaction path) must answer every query identically to an index
// built by sequential Add calls — with centroids computed for the store
// and with the ones the incremental index holds (what a snapshot
// persists).
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
	cfg := Config{K: k, Dim: dim}
	inc := New(cfg)
	for i, set := range sets {
		inc.Add(set, ids[i])
	}
	flats := make([]vectorset.Flat, n)
	cents := make([][]float64, n)
	for i, set := range sets {
		flats[i] = vectorset.FlatFromRows(set)
		cents[i] = inc.Centroid(i)
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
			q := sets[rng.Intn(n)]
			a, b := inc.KNN(q, 9), bulk.KNN(q, 9)
			if len(a) != len(b) {
				t.Fatalf("withCents=%v: KNN sizes %d vs %d", withCents, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("withCents=%v: KNN[%d] = %+v vs %+v", withCents, i, a[i], b[i])
				}
			}
			eps := a[len(a)/2].Dist
			ra, rb := inc.Range(q, eps), bulk.Range(q, eps)
			if len(ra) != len(rb) {
				t.Fatalf("withCents=%v: Range sizes %d vs %d", withCents, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("withCents=%v: Range[%d] = %+v vs %+v", withCents, i, ra[i], rb[i])
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
