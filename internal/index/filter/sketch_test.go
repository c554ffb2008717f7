package filter

import (
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/sketch"
	"github.com/voxset/voxset/internal/vectorset"
)

func buildSketchIndex(t *testing.T, workers int) *Index {
	t.Helper()
	sets := randSets(41, 600, 5, 6)
	flats := make([]vectorset.Flat, len(sets))
	ids := make([]int, len(sets))
	for i, s := range sets {
		flats[i] = vectorset.FlatFromRows(s)
		ids[i] = i + 1
	}
	p := sketch.DefaultParams()
	return bulkFromFlats(t, Config{K: 5, Dim: 6, Workers: workers, Sketch: &p}, flats, ids)
}

// TestSketchBuildDeterministicAcrossWorkers pins the satellite
// requirement: the lazily built signature table is byte-identical at
// any worker count (each signature is a pure function of the set and
// lands in its own slot).
func TestSketchBuildDeterministicAcrossWorkers(t *testing.T) {
	var ref *sketch.Block
	for _, workers := range []int{1, 2, 8} {
		ix := buildSketchIndex(t, workers)
		b := ix.SketchBlock()
		if b == nil || b.Count != ix.Len() {
			t.Fatalf("workers=%d: block %+v", workers, b)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !reflect.DeepEqual(b.Words, ref.Words) || b.Params != ref.Params {
			t.Fatalf("workers=%d: signature table differs from workers=1", workers)
		}
	}
}

// TestKNNApproxExactDistances: every approximate neighbor carries the
// exact matching distance (it appears in the exact engine's answer at
// the same distance), results follow the (dist, id) order, and a full
// budget reproduces the exact top-k.
func TestKNNApproxExactDistances(t *testing.T) {
	ix := buildSketchIndex(t, 4)
	exactIx := buildSketchIndex(t, 4) // fresh index for exact baseline
	q := vectorset.FlatFromRows(randSets(99, 1, 5, 6)[0])
	const k = 10

	exactAll := exactIx.KNNFlat(q, ix.Len()) // every object, exact
	byID := make(map[int]float64, len(exactAll))
	for _, nb := range exactAll {
		byID[nb.ID] = nb.Dist
	}
	approx := ix.KNNApproxFlat(q, k, 64)
	if len(approx) != k {
		t.Fatalf("approx returned %d neighbors, want %d", len(approx), k)
	}
	for i, nb := range approx {
		if d, ok := byID[nb.ID]; !ok || d != nb.Dist {
			t.Fatalf("neighbor %d: approx dist %v, exact %v", i, nb.Dist, d)
		}
		if i > 0 && worseNeighbor(approx[i-1], nb) {
			t.Fatalf("approx results out of (dist, id) order at %d", i)
		}
	}

	// Budget ≥ n refines everything: the answer must equal the exact top-k.
	full := ix.KNNApproxFlat(q, k, ix.Len())
	want := exactAll[:k]
	if !reflect.DeepEqual(full, want) {
		t.Fatalf("full-budget approx differs from exact top-%d:\n%v\n%v", k, full, want)
	}
}

// TestRangeApproxSubset: approximate range results are a subset of the
// exact range result with identical distances, and a full budget
// reproduces it entirely.
func TestRangeApproxSubset(t *testing.T) {
	ix := buildSketchIndex(t, 2)
	q := vectorset.FlatFromRows(randSets(7, 1, 5, 6)[0])
	// Pick eps so the exact result holds ~20 objects regardless of the
	// corpus distribution.
	eps := ix.KNNFlat(q, 20)[19].Dist
	exact := ix.RangeFlat(q, eps)
	if len(exact) == 0 {
		t.Fatal("test needs a non-empty exact range result; widen eps")
	}
	byID := make(map[int]float64, len(exact))
	for _, nb := range exact {
		byID[nb.ID] = nb.Dist
	}
	approx := ix.RangeApproxFlat(q, eps, 128)
	for _, nb := range approx {
		if d, ok := byID[nb.ID]; !ok || d != nb.Dist {
			t.Fatalf("approx range hit %v not in exact result (exact dist %v)", nb, d)
		}
	}
	full := ix.RangeApproxFlat(q, eps, ix.Len())
	if !reflect.DeepEqual(full, exact) {
		t.Fatalf("full-budget approx range differs from exact:\n%v\n%v", full, exact)
	}
}

// TestApproxDisabledFallsBack: without Sketch in the config the approx
// entry points are the exact engine, byte for byte.
func TestApproxDisabledFallsBack(t *testing.T) {
	sets := randSets(13, 200, 5, 6)
	flats := make([]vectorset.Flat, len(sets))
	ids := make([]int, len(sets))
	for i, s := range sets {
		flats[i] = vectorset.FlatFromRows(s)
		ids[i] = i
	}
	ix := bulkFromFlats(t, Config{K: 5, Dim: 6}, flats, ids)
	if ix.SketchEnabled() {
		t.Fatal("sketch tier enabled without config")
	}
	q := vectorset.FlatFromRows(randSets(5, 1, 5, 6)[0])
	if got, want := ix.KNNApproxFlat(q, 7, 3), ix.KNNFlat(q, 7); !reflect.DeepEqual(got, want) {
		t.Fatalf("disabled approx knn differs from exact:\n%v\n%v", got, want)
	}
	if got, want := ix.RangeApproxFlat(q, 10, 3), ix.RangeFlat(q, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("disabled approx range differs from exact:\n%v\n%v", got, want)
	}
}

// TestAttachSketches: an adopted table short-circuits the rebuild and
// answers identically; mismatched params or counts are rejected.
func TestAttachSketches(t *testing.T) {
	base := buildSketchIndex(t, 1)
	block := base.SketchBlock()
	q := vectorset.FlatFromRows(randSets(3, 1, 5, 6)[0])
	want := base.KNNApproxFlat(q, 5, 48)

	adopted := buildSketchIndex(t, 1)
	if err := adopted.AttachSketches(block); err != nil {
		t.Fatal(err)
	}
	if got := adopted.KNNApproxFlat(q, 5, 48); !reflect.DeepEqual(got, want) {
		t.Fatalf("adopted-table answer differs:\n%v\n%v", got, want)
	}

	bad := *block
	bad.Params.Seed++
	if err := buildSketchIndex(t, 1).AttachSketches(&bad); err == nil {
		t.Fatal("mismatched params accepted")
	}
	short := *block
	short.Count--
	short.Words = short.Words[:short.Count*short.Params.Words()]
	if err := buildSketchIndex(t, 1).AttachSketches(&short); err == nil {
		t.Fatal("mismatched count accepted")
	}
	var _ []index.Neighbor = want // keep the import honest if asserts change
}
