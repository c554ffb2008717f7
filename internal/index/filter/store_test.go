package filter

import (
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// memStore is the simplest SetStore: everything in heap slices.
type memStore struct {
	sets  []vectorset.Flat
	cents [][]float64
}

func (s *memStore) Len() int                 { return len(s.sets) }
func (s *memStore) At(i int) vectorset.Flat  { return s.sets[i] }
func (s *memStore) Centroid(i int) []float64 { return s.cents[i] }

// bulkFromFlats is NewBulkStore over a heap store of the given sets,
// with centroids computed under cfg (zero ω unless cfg.Omega is set).
func bulkFromFlats(t testing.TB, cfg Config, flats []vectorset.Flat, ids []int) *Index {
	t.Helper()
	omega := cfg.Omega
	if omega == nil {
		omega = make([]float64, cfg.Dim)
	}
	st := &memStore{sets: flats}
	for _, f := range flats {
		st.cents = append(st.cents, f.Centroid(cfg.K, omega))
	}
	ix, err := NewBulkStore(cfg, st, ids, StoreBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func storeCorpus(t *testing.T, n int, cfg Config) (*memStore, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(0xbead))
	st := &memStore{}
	ids := make([]int, n)
	omega := cfg.Omega
	if omega == nil {
		omega = make([]float64, cfg.Dim)
	}
	for i := 0; i < n; i++ {
		card := 1 + rng.Intn(cfg.K)
		data := make([]float64, card*cfg.Dim)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		f := vectorset.Flat{Data: data, Card: card, Dim: cfg.Dim}
		st.sets = append(st.sets, f)
		st.cents = append(st.cents, f.Centroid(cfg.K, omega))
		ids[i] = 10 + i*2
	}
	return st, ids
}

// TestNewBulkStoreParity asserts that a store-backed index — in-memory
// STR and external STR alike — answers KNN and range queries exactly
// like an index grown by sequential Add calls over the same sets, at one
// worker and several.
func TestNewBulkStoreParity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := Config{K: 8, Dim: 4, Workers: workers}
		st, ids := storeCorpus(t, 600, cfg)
		ref := New(cfg)
		for i, set := range st.sets {
			ref.Add(set.Rows(), ids[i])
		}

		variants := map[string]StoreBuildOptions{
			"in-memory": {},
			"external":  {External: true, TmpDir: t.TempDir(), RunSize: 64},
		}
		for name, opt := range variants {
			ix, err := NewBulkStore(cfg, st, ids, opt)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Len() != ref.Len() {
				t.Fatalf("%s/w=%d: Len = %d, want %d", name, workers, ix.Len(), ref.Len())
			}
			rng := rand.New(rand.NewSource(77))
			for qi := 0; qi < 20; qi++ {
				q := make([][]float64, 1+rng.Intn(cfg.K))
				for i := range q {
					q[i] = make([]float64, cfg.Dim)
					for j := range q[i] {
						q[i][j] = rng.NormFloat64()
					}
				}
				a, b := ref.KNN(q, 7), ix.KNN(q, 7)
				if len(a) != len(b) {
					t.Fatalf("%s/w=%d query %d: %d vs %d knn results", name, workers, qi, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s/w=%d query %d knn[%d]: %+v vs %+v", name, workers, qi, i, a[i], b[i])
					}
				}
				ra, rb := ref.Range(q, 3.0), ix.Range(q, 3.0)
				if len(ra) != len(rb) {
					t.Fatalf("%s/w=%d query %d: %d vs %d range results", name, workers, qi, len(ra), len(rb))
				}
				for i := range ra {
					if ra[i] != rb[i] {
						t.Fatalf("%s/w=%d query %d range[%d]: %+v vs %+v", name, workers, qi, i, ra[i], rb[i])
					}
				}
			}
		}
	}
}

func TestNewBulkStoreEmptyAndImmutable(t *testing.T) {
	cfg := Config{K: 4, Dim: 3}
	ix, err := NewBulkStore(cfg, &memStore{}, nil, StoreBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatalf("empty store index has Len %d", ix.Len())
	}
	st, ids := storeCorpus(t, 5, cfg)
	ix, err = NewBulkStore(cfg, st, ids, StoreBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a store-backed index should panic")
		}
	}()
	ix.Add([][]float64{{1, 2, 3}}, 999)
}
