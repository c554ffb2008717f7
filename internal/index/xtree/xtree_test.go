package xtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/storage"
)

func randPoints(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64() * 100
		}
	}
	return pts
}

func euclid(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func bruteKNN(pts [][]float64, q []float64, k int) []index.Neighbor {
	var all []index.Neighbor
	for i, p := range pts {
		all = append(all, index.Neighbor{ID: i, Dist: euclid(p, q)})
	}
	sort.Sort(index.ByDistance(all))
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestXTreeInsertAndLen(t *testing.T) {
	tr := New(3, Config{})
	pts := randPoints(1, 500, 3)
	for i, p := range pts {
		tr.Insert(p, i)
	}
	if tr.Len() != 500 {
		t.Errorf("len = %d", tr.Len())
	}
	if tr.height < 2 {
		t.Errorf("height = %d; tree should have split", tr.height)
	}
}

func TestXTreeKNNMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{2, 6, 16} {
		pts := randPoints(int64(dim), 400, dim)
		tr := New(dim, Config{})
		for i, p := range pts {
			tr.Insert(p, i)
		}
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 20; trial++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.Float64() * 100
			}
			got := tr.KNN(q, 10)
			want := bruteKNN(pts, q, 10)
			if len(got) != len(want) {
				t.Fatalf("dim %d: got %d results", dim, len(got))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("dim %d trial %d: result %d dist %v, want %v",
						dim, trial, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestXTreeRangeMatchesBruteForce(t *testing.T) {
	dim := 6
	pts := randPoints(5, 300, dim)
	tr := New(dim, Config{})
	for i, p := range pts {
		tr.Insert(p, i)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64() * 100
		}
		eps := 20 + rng.Float64()*40
		got := tr.Range(q, eps)
		want := map[int]bool{}
		for i, p := range pts {
			if euclid(p, q) <= eps {
				want[i] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for _, nb := range got {
			if !want[nb.ID] {
				t.Fatalf("unexpected result id %d", nb.ID)
			}
		}
	}
}

func TestXTreeKNNFewerPointsThanK(t *testing.T) {
	tr := New(2, Config{})
	tr.Insert([]float64{0, 0}, 0)
	tr.Insert([]float64{1, 1}, 1)
	got := tr.KNN([]float64{0, 0}, 10)
	if len(got) != 2 {
		t.Errorf("got %d results, want 2", len(got))
	}
}

func TestXTreeEmpty(t *testing.T) {
	tr := New(4, Config{})
	if got := tr.KNN(make([]float64, 4), 5); len(got) != 0 {
		t.Errorf("empty tree knn = %v", got)
	}
	if got := tr.Range(make([]float64, 4), 10); len(got) != 0 {
		t.Errorf("empty tree range = %v", got)
	}
}

func TestXTreeDimMismatchPanics(t *testing.T) {
	tr := New(3, Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Insert([]float64{1, 2}, 0)
}

func TestXTreeRankingEnumeratesAllInOrder(t *testing.T) {
	dim := 6
	pts := randPoints(13, 150, dim)
	tr := New(dim, Config{})
	for i, p := range pts {
		tr.Insert(p, i)
	}
	q := make([]float64, dim)
	it := tr.NewRanking(q)
	var dists []float64
	seen := map[int]bool{}
	for {
		nb, ok := it.Next()
		if !ok {
			break
		}
		if seen[nb.ID] {
			t.Fatalf("id %d returned twice", nb.ID)
		}
		seen[nb.ID] = true
		dists = append(dists, nb.Dist)
	}
	if len(dists) != len(pts) {
		t.Fatalf("ranking returned %d of %d points", len(dists), len(pts))
	}
	if !sort.Float64sAreSorted(dists) {
		t.Error("ranking not in distance order")
	}
}

func TestXTreeChargesTracker(t *testing.T) {
	var track storage.Tracker
	tr := New(6, Config{Tracker: &track})
	pts := randPoints(3, 1000, 6)
	for i, p := range pts {
		tr.Insert(p, i)
	}
	track.Reset()
	tr.KNN(pts[0], 10)
	if track.PageAccesses() == 0 || track.BytesRead() == 0 {
		t.Error("query did not charge the tracker")
	}
	// A 10-nn query must touch far fewer pages than the whole tree.
	full := track.PageAccesses()
	track.Reset()
	tr.Range(pts[0], 1e9) // read everything
	if full >= track.PageAccesses() {
		t.Errorf("knn touched %d pages, full scan %d", full, track.PageAccesses())
	}
}

// TestXTreeHighDimBuildsSupernodes: in high dimensions the X-tree falls
// back to supernodes where a directory split would overlap too much, and
// answers stay exact either way. The uniform 8-d case is pinned to reach
// split's supernode branch; the 24-d highly correlated case is kept for
// its answers (it builds a tall tree of ordinary splits, no supernode).
func TestXTreeHighDimBuildsSupernodes(t *testing.T) {
	correlated := func(seed int64, n, dim int) [][]float64 {
		rng := rand.New(rand.NewSource(seed))
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, dim)
			base := rng.Float64()
			for j := range p {
				p[j] = base + rng.Float64()*0.01
			}
			pts[i] = p
		}
		return pts
	}
	cases := []struct {
		name           string
		pts            [][]float64
		wantSupernodes bool
	}{
		{"uniform-8d", randPoints(8, 4000, 8), true},
		{"correlated-24d", correlated(17, 2000, 24), false},
	}
	for _, c := range cases {
		dim := len(c.pts[0])
		tr := New(dim, Config{PageSize: 1024})
		for i, p := range c.pts {
			tr.Insert(p, i)
		}
		if tr.Len() != len(c.pts) {
			t.Fatalf("%s: len %d, want %d", c.name, tr.Len(), len(c.pts))
		}
		if c.wantSupernodes && tr.supernodes == 0 {
			t.Fatalf("%s: no supernode built (height %d)", c.name, tr.height)
		}
		t.Logf("%s: supernodes %d, height %d", c.name, tr.supernodes, tr.height)
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 10; trial++ {
			// A point of the set, or one between two of them per coordinate.
			a, b := c.pts[rng.Intn(len(c.pts))], c.pts[rng.Intn(len(c.pts))]
			q := a
			if trial%2 == 1 {
				q = make([]float64, dim)
				for j := range q {
					q[j] = a[j] + (b[j]-a[j])*rng.Float64()
				}
			}
			got, want := tr.KNN(q, 10), bruteKNN(c.pts, q, 10)
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d results, want %d", c.name, trial, len(got), len(want))
			}
			for i := range got {
				if got[i].Dist != want[i].Dist {
					t.Fatalf("%s trial %d: result %d dist %v, want %v", c.name, trial, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestXTreeDuplicatePoints(t *testing.T) {
	tr := New(3, Config{})
	p := []float64{1, 2, 3}
	for i := 0; i < 200; i++ {
		tr.Insert(p, i)
	}
	got := tr.KNN(p, 200)
	if len(got) != 200 {
		t.Fatalf("got %d of 200 duplicates", len(got))
	}
	for _, nb := range got {
		if nb.Dist != 0 {
			t.Fatal("duplicate at nonzero distance")
		}
	}
}

func TestXTreeInvalidDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, Config{})
}
