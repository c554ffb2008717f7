package vsdb

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/voxset/voxset/internal/snapshot"
)

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{Dim: 4, MaxCard: 5})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func randSet(rng *rand.Rand, card, dim int) [][]float64 {
	s := make([][]float64, card)
	for i := range s {
		s[i] = make([]float64, dim)
		for j := range s[i] {
			s[i][j] = rng.NormFloat64() * 10
		}
	}
	return s
}

func TestOpenValidates(t *testing.T) {
	cases := []Config{
		{Dim: 0, MaxCard: 3},
		{Dim: 3, MaxCard: 0},
		{Dim: 3, MaxCard: 2, Omega: []float64{1}},
	}
	for _, c := range cases {
		if _, err := Open(c); err == nil {
			t.Errorf("config %+v should be rejected", c)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	db := openTestDB(t)
	if err := db.Insert(1, [][]float64{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(1, [][]float64{{1, 2, 3, 4}}); err == nil {
		t.Error("duplicate id must error")
	}
	if err := db.Insert(2, nil); err == nil {
		t.Error("empty set must error")
	}
	if err := db.Insert(3, [][]float64{{1, 2}}); err == nil {
		t.Error("wrong dim must error")
	}
	if err := db.Insert(4, randSet(rand.New(rand.NewSource(1)), 6, 4)); err == nil {
		t.Error("over-cardinality must error")
	}
	if db.Len() != 1 {
		t.Errorf("len = %d", db.Len())
	}
}

func TestInsertCopiesData(t *testing.T) {
	db := openTestDB(t)
	set := [][]float64{{1, 2, 3, 4}}
	if err := db.Insert(9, set); err != nil {
		t.Fatal(err)
	}
	set[0][0] = 999
	if db.Get(9)[0][0] != 1 {
		t.Error("Insert must copy vectors")
	}
}

func TestKNNExactAgainstBruteForce(t *testing.T) {
	db := openTestDB(t)
	rng := rand.New(rand.NewSource(2))
	var all [][][]float64
	for i := 0; i < 150; i++ {
		s := randSet(rng, 1+rng.Intn(5), 4)
		all = append(all, s)
		if err := db.Insert(uint64(i), s); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 10; trial++ {
		q := all[rng.Intn(len(all))]
		got := db.KNN(q, 7)
		type pair struct {
			id uint64
			d  float64
		}
		var want []pair
		for i, s := range all {
			want = append(want, pair{uint64(i), db.Distance(q, s)})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].d != want[j].d {
				return want[i].d < want[j].d
			}
			return want[i].id < want[j].id
		})
		if len(got) != 7 {
			t.Fatalf("got %d results", len(got))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].d) > 1e-9 {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, got[i].Dist, want[i].d)
			}
		}
	}
}

func TestRangeMatchesDistance(t *testing.T) {
	db := openTestDB(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 80; i++ {
		if err := db.Insert(uint64(i), randSet(rng, 1+rng.Intn(5), 4)); err != nil {
			t.Fatal(err)
		}
	}
	q := db.Get(0)
	eps := 30.0
	got := db.Range(q, eps)
	want := 0
	for i := 0; i < 80; i++ {
		if db.Distance(q, db.Get(uint64(i))) <= eps {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("range returned %d, want %d", len(got), want)
	}
	for _, nb := range got {
		if nb.Dist > eps {
			t.Errorf("result %v beyond eps", nb)
		}
	}
}

func TestDeleteRemovesFromQueries(t *testing.T) {
	db := openTestDB(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		if err := db.Insert(uint64(i), randSet(rng, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	q := db.Get(5)
	if err := db.Delete(5); err != nil {
		t.Fatal(err)
	}
	if db.Get(5) != nil {
		t.Error("deleted object still readable")
	}
	if err := db.Delete(5); err == nil {
		t.Error("double delete must error")
	}
	for _, nb := range db.KNN(q, 30) {
		if nb.ID == 5 {
			t.Error("deleted object returned by KNN")
		}
	}
	if db.Len() != 29 {
		t.Errorf("len = %d", db.Len())
	}
}

func TestMassDeletionTriggersRebuildAndStaysCorrect(t *testing.T) {
	db := openTestDB(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if err := db.Insert(uint64(i), randSet(rng, 2, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		if err := db.Delete(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 20 {
		t.Fatalf("len = %d", db.Len())
	}
	got := db.KNN(db.Get(90), 20)
	if len(got) != 20 {
		t.Fatalf("got %d of 20 live objects", len(got))
	}
	for _, nb := range got {
		if nb.ID < 80 {
			t.Errorf("deleted id %d returned", nb.ID)
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	db := openTestDB(t)
	if got := db.KNN([][]float64{{0, 0, 0, 0}}, 5); got != nil {
		t.Error("empty db should return nil")
	}
	if err := db.Insert(1, [][]float64{{1, 1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if got := db.KNN(db.Get(1), 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := db.KNN(db.Get(1), 99); len(got) != 1 {
		t.Errorf("k>len returned %d", len(got))
	}
}

func TestCustomOmegaStillExact(t *testing.T) {
	omega := []float64{50, 50, 50, 50}
	db, err := Open(Config{Dim: 4, MaxCard: 4, Omega: omega})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var sets [][][]float64
	for i := 0; i < 60; i++ {
		s := randSet(rng, 1+rng.Intn(4), 4)
		sets = append(sets, s)
		if err := db.Insert(uint64(i), s); err != nil {
			t.Fatal(err)
		}
	}
	q := sets[10]
	got := db.KNN(q, 5)
	best, bestID := math.Inf(1), uint64(0)
	for i, s := range sets {
		if d := db.Distance(q, s); d < best {
			best, bestID = d, uint64(i)
		}
	}
	if got[0].ID != bestID || math.Abs(got[0].Dist-best) > 1e-9 {
		t.Errorf("nearest = %+v, want id %d dist %v", got[0], bestID, best)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := openTestDB(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		if err := db.Insert(uint64(i*3), randSet(rng, 1+rng.Intn(5), 4)); err != nil {
			t.Fatal(err)
		}
	}
	back := reopen(t, db, LoadOptions{})
	if back.Len() != db.Len() {
		t.Fatalf("loaded %d, want %d", back.Len(), db.Len())
	}
	q := db.Get(30)
	a := db.KNN(q, 10)
	b := back.KNN(q, 10)
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
			t.Fatalf("rank %d differs after reload: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.vsnap")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, LoadOptions{}); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("OpenFile on garbage = %v, want snapshot.ErrCorrupt", err)
	}
}
