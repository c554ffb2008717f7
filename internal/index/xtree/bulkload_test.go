package xtree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/storage"
)

func TestBulkLoadQueriesMatchBruteForce(t *testing.T) {
	for _, dim := range []int{2, 6} {
		pts := randPoints(int64(dim)+100, 500, dim)
		ids := make([]int, len(pts))
		for i := range ids {
			ids[i] = i
		}
		tr := BulkLoad(pts, ids, Config{})
		if tr.Len() != 500 {
			t.Fatalf("len = %d", tr.Len())
		}
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 15; trial++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.Float64() * 100
			}
			got := tr.KNN(q, 8)
			want := bruteKNN(pts, q, 8)
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("dim %d trial %d rank %d: %v vs %v",
						dim, trial, i, got[i].Dist, want[i].Dist)
				}
			}
			eps := 25.0
			gr := tr.Range(q, eps)
			wantN := 0
			for _, p := range pts {
				if euclid(p, q) <= eps {
					wantN++
				}
			}
			if len(gr) != wantN {
				t.Fatalf("dim %d: range %d, want %d", dim, len(gr), wantN)
			}
		}
	}
}

func TestBulkLoadBeatsIterativeOnIO(t *testing.T) {
	dim := 6
	pts := randPoints(42, 2000, dim)
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}

	var trBulk, trIter storage.Tracker
	bulk := BulkLoad(pts, ids, Config{Tracker: &trBulk})
	iter := New(dim, Config{Tracker: &trIter})
	for i, p := range pts {
		iter.Insert(p, i)
	}
	trBulk.Reset()
	trIter.Reset()
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 50; q++ {
		query := make([]float64, dim)
		for j := range query {
			query[j] = rng.Float64() * 100
		}
		bulk.KNN(query, 10)
		iter.KNN(query, 10)
	}
	// STR's advantage is construction cost; query I/O should stay in the
	// same ballpark as the R*-style iterative build (high-dimensional STR
	// tiling is known to trail slightly on overlap).
	if float64(trBulk.PageAccesses()) > 1.5*float64(trIter.PageAccesses()) {
		t.Errorf("bulk-loaded tree used %d pages, iterative %d — packing degraded badly",
			trBulk.PageAccesses(), trIter.PageAccesses())
	}
	t.Logf("pages per 50 queries: bulk %d, iterative %d", trBulk.PageAccesses(), trIter.PageAccesses())
}

func TestBulkLoadThenInsert(t *testing.T) {
	pts := randPoints(7, 300, 4)
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	tr := BulkLoad(pts, ids, Config{})
	// Inserting after bulk loading must keep queries exact.
	extra := randPoints(8, 100, 4)
	all := append(append([][]float64{}, pts...), extra...)
	for i, p := range extra {
		tr.Insert(p, 300+i)
	}
	if tr.Len() != 400 {
		t.Fatalf("len = %d", tr.Len())
	}
	got := tr.KNN(all[350], 5)
	want := bruteKNN(all, all[350], 5)
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestBulkLoadDuplicatePoints(t *testing.T) {
	p := []float64{1, 2, 3}
	var pts [][]float64
	var ids []int
	for i := 0; i < 500; i++ {
		pts = append(pts, p)
		ids = append(ids, i)
	}
	tr := BulkLoad(pts, ids, Config{})
	got := tr.KNN(p, 500)
	if len(got) != 500 {
		t.Fatalf("got %d of 500 duplicates", len(got))
	}
}

func TestBulkLoadValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched lengths")
		}
	}()
	BulkLoad([][]float64{{1, 2}}, []int{0, 1}, Config{})
}

func TestBulkLoadEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty input")
		}
	}()
	BulkLoad(nil, nil, Config{})
}

func TestBulkLoadSinglePoint(t *testing.T) {
	tr := BulkLoad([][]float64{{5, 5}}, []int{7}, Config{})
	got := tr.KNN([]float64{0, 0}, 1)
	if len(got) != 1 || got[0].ID != 7 {
		t.Errorf("knn = %v", got)
	}
	if tr.height != 1 {
		t.Errorf("height = %d", tr.height)
	}
}
