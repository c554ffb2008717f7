package filter

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// memStore is the simplest SetStore: the sets in a heap slice, their
// centroids appended to one column.
type memStore struct {
	sets  []vectorset.Flat
	cents []float64
}

func (s *memStore) Len() int                  { return len(s.sets) }
func (s *memStore) At(i int) vectorset.Flat   { return s.sets[i] }
func (s *memStore) CentroidColumn() []float64 { return s.cents }

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
		st.cents = append(st.cents, f.Centroid(cfg.K, omega)...)
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
		st.cents = append(st.cents, f.Centroid(cfg.K, omega)...)
		ids[i] = 10 + i*2
	}
	return st, ids
}

// TestNewBulkStoreParity asserts that a store-backed index answers KNN
// and range queries exactly like an index grown by sequential Add calls
// over the same sets.
func TestNewBulkStoreParity(t *testing.T) {
	cfg := Config{K: 8, Dim: 4}
	st, ids := storeCorpus(t, 600, cfg)
	ref := New(cfg)
	for i, set := range st.sets {
		ref.Add(set.Rows(), ids[i])
	}

	ix, err := NewBulkStore(cfg, st, ids, StoreBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", ix.Len(), ref.Len())
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
		if a, b := ref.KNN(q, 7), ix.KNN(q, 7); !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d knn:\n add  %+v\n bulk %+v", qi, a, b)
		}
		if a, b := ref.Range(q, 3.0), ix.Range(q, 3.0); !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d range:\n add  %+v\n bulk %+v", qi, a, b)
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
