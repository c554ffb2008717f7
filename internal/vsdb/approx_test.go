package vsdb

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vectorset"
)

// testApprox is the tier configuration used across the approx tests:
// small enough to be fast, non-default seed so adoption tests catch a
// params mix-up.
func testApprox() *ApproxOptions {
	return &ApproxOptions{Bits: 128, Active: 12, Seed: 99, KNNFactor: 8, MinCandidates: 32, RangeCandidates: 64}
}

// randomApproxDB is randomDB with the approximate tier enabled.
func randomApproxDB(t *testing.T, seed int64, n, workers int) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, err := Open(Config{Dim: 4, MaxCard: 5, Omega: []float64{0.3, -0.1, 0.7, 0.2},
		Workers: workers, Approx: testApprox()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert(uint64(i), randomQuery(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Fold the inserts into the base: the sketch tier only proposes
	// base-resident candidates, so an uncompacted database would answer
	// everything through the (exact) delta scan.
	db.Compact()
	return db
}

// TestApproxDisabledIsExact: without Config.Approx a Query with Approx set
// is answered by the exact engine, result for result.
func TestApproxDisabledIsExact(t *testing.T) {
	db := randomDB(t, 21, 150)
	if db.Stats().ApproxEnabled {
		t.Fatal("ApproxEnabled without configuration")
	}
	rng := rand.New(rand.NewSource(5))
	qs := [][][]float64{randomQuery(rng), randomQuery(rng), randomQuery(rng)}
	for _, q := range qs {
		if got, want := one(db, Query{Set: q, Kind: KNN, K: 7, Approx: true}), db.KNN(q, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("approximate k-nn differs from KNN:\n%v\n%v", got, want)
		}
		if got, want := one(db, Query{Set: q, Kind: Range, Eps: 2.5, Approx: true}), db.Range(q, 2.5); !reflect.DeepEqual(got, want) {
			t.Fatalf("approximate range differs from Range:\n%v\n%v", got, want)
		}
	}
	if got, want := db.Search(batchOf(qs, Query{Kind: KNN, K: 7, Approx: true})), db.KNNBatch(qs, 7); !reflect.DeepEqual(got, want) {
		t.Fatal("approximate k-nn batch differs from KNNBatch")
	}
	if got, want := db.Search(batchOf(qs, Query{Kind: Range, Eps: 2.5, Approx: true})), db.Search(batchOf(qs, Query{Kind: Range, Eps: 2.5})); !reflect.DeepEqual(got, want) {
		t.Fatal("approximate range batch differs from the exact range batch")
	}
	if db.Stats().SketchCandidates != 0 {
		t.Fatalf("exact-only workload proposed %d sketch candidates", db.Stats().SketchCandidates)
	}
}

// TestApproxExactDistancesWithMutations: across tombstones and delta
// objects, approximate results carry exact distances, never surface a
// deleted id, and always surface an identical delta-resident set at
// distance 0.
func TestApproxExactDistancesWithMutations(t *testing.T) {
	db := randomApproxDB(t, 31, 300, 2)
	// Tombstone a few base residents, then insert fresh delta objects.
	for id := uint64(0); id < 10; id++ {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(77))
	probe := randomQuery(rng)
	if err := db.Insert(9001, probe); err != nil {
		t.Fatal(err)
	}
	if db.Stats().DeltaLen == 0 {
		t.Fatal("test expects the insert to land in the delta memtable")
	}

	got := one(db, Query{Set: probe, Kind: KNN, K: 15, Approx: true})
	if len(got) != 15 {
		t.Fatalf("got %d neighbors, want 15", len(got))
	}
	if got[0].ID != 9001 || got[0].Dist != 0 {
		t.Fatalf("identical delta object not first at distance 0: %+v", got[0])
	}
	for i, nb := range got {
		if nb.ID < 10 {
			t.Fatalf("deleted id %d surfaced", nb.ID)
		}
		if want := db.Distance(probe, db.Get(nb.ID)); nb.Dist != want {
			t.Fatalf("neighbor %d: dist %v, exact %v", i, nb.Dist, want)
		}
		if i > 0 && (got[i-1].Dist > nb.Dist || (got[i-1].Dist == nb.Dist && got[i-1].ID >= nb.ID)) {
			t.Fatalf("results out of (dist, id) order at %d", i)
		}
	}
	for _, nb := range one(db, Query{Set: probe, Kind: Range, Eps: 2.0, Approx: true}) {
		if nb.Dist > 2.0 || nb.ID < 10 {
			t.Fatalf("range hit %+v out of bounds", nb)
		}
		if want := db.Distance(probe, db.Get(nb.ID)); nb.Dist != want {
			t.Fatalf("range hit %d: dist %v, exact %v", nb.ID, nb.Dist, want)
		}
	}
}

// TestApproxDeterministicAcrossWorkers: identical databases at worker
// counts 1 and 4 answer approximate queries identically (the transcript
// contract the recall harness pins end to end).
func TestApproxDeterministicAcrossWorkers(t *testing.T) {
	a := randomApproxDB(t, 47, 250, 1)
	b := randomApproxDB(t, 47, 250, 4)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		q := randomQuery(rng)
		if ra, rb := one(a, Query{Set: q, Kind: KNN, K: 9, Approx: true}), one(b, Query{Set: q, Kind: KNN, K: 9, Approx: true}); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %d: workers=1 and workers=4 disagree:\n%v\n%v", i, ra, rb)
		}
		if ra, rb := one(a, Query{Set: q, Kind: Range, Eps: 2.2, Approx: true}), one(b, Query{Set: q, Kind: Range, Eps: 2.2, Approx: true}); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("range query %d: workers=1 and workers=4 disagree", i)
		}
	}
}

// TestApproxBatchMatchesSequential: the batch entry points answer each
// query exactly as the sequential ones at the same epoch.
func TestApproxBatchMatchesSequential(t *testing.T) {
	db := randomApproxDB(t, 53, 200, 4)
	rng := rand.New(rand.NewSource(9))
	qs := make([][][]float64, 7)
	for i := range qs {
		qs[i] = randomQuery(rng)
	}
	knn := db.Search(batchOf(qs, Query{Kind: KNN, K: 6, Approx: true}))
	rng2 := db.Search(batchOf(qs, Query{Kind: Range, Eps: 2.0, Approx: true}))
	for i, q := range qs {
		if want := one(db, Query{Set: q, Kind: KNN, K: 6, Approx: true}); !reflect.DeepEqual(knn[i], want) {
			t.Fatalf("batch knn entry %d differs from sequential", i)
		}
		if want := one(db, Query{Set: q, Kind: Range, Eps: 2.0, Approx: true}); !reflect.DeepEqual(rng2[i], want) {
			t.Fatalf("batch range entry %d differs from sequential", i)
		}
	}
}

// TestApproxSketchCandidatesCounter: the candidate gauge advances with
// approximate queries and survives compaction (harvested like the
// refinement counter).
func TestApproxSketchCandidatesCounter(t *testing.T) {
	db := randomApproxDB(t, 61, 200, 1)
	rng := rand.New(rand.NewSource(3))
	q := randomQuery(rng)
	one(db, Query{Set: q, Kind: KNN, K: 5, Approx: true})
	before := db.Stats().SketchCandidates
	if before <= 0 {
		t.Fatalf("counter %d after an approximate query, want > 0", before)
	}
	if err := db.Insert(5000, randomQuery(rng)); err != nil {
		t.Fatal(err)
	}
	db.Compact()
	if after := db.Stats().SketchCandidates; after < before {
		t.Fatalf("counter shrank across compaction: %d → %d", before, after)
	}
}

// TestApproxPersistenceRoundTrip: SaveFile with the tier enabled
// persists the sketch tail; an OpenFile under matching parameters adopts
// it and answers identically; SaveFile → OpenFile → SaveFile stays a
// byte-level fixed point.
func TestApproxPersistenceRoundTrip(t *testing.T) {
	db := randomApproxDB(t, 71, 180, 2)
	path := filepath.Join(t.TempDir(), "approx.vsnap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.OpenPaged(path, snapshot.PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := r.Sketches()
	r.Close()
	if err != nil || blk == nil || blk.Count != db.Len() {
		t.Fatalf("snapshot sketch tail: %+v, %v", blk, err)
	}

	back, err := OpenFile(path, LoadOptions{Approx: testApprox()})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5; i++ {
		q := randomQuery(rng)
		if got, want := one(back, Query{Set: q, Kind: KNN, K: 8, Approx: true}), one(db, Query{Set: q, Kind: KNN, K: 8, Approx: true}); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: opened database disagrees:\n%v\n%v", i, got, want)
		}
	}
	if !bytes.Equal(fingerprint(t, db), fingerprint(t, back)) {
		t.Fatal("SaveFile → OpenFile → SaveFile is not a fixed point with sketches")
	}

	// An open under different parameters must ignore the persisted table
	// (lazy rebuild) and still answer with exact distances.
	other := testApprox()
	other.Seed = 12345
	reb, err := OpenFile(path, LoadOptions{Approx: other})
	if err != nil {
		t.Fatal(err)
	}
	defer reb.Close()
	q := randomQuery(rng)
	for _, nb := range one(reb, Query{Set: q, Kind: KNN, K: 5, Approx: true}) {
		if want := reb.Distance(q, reb.Get(nb.ID)); nb.Dist != want {
			t.Fatalf("rebuilt-tier neighbor %d: dist %v, exact %v", nb.ID, nb.Dist, want)
		}
	}
}

// TestApproxPagedAdoptsPersistedSketches: a stream-built paged snapshot
// carries the sketch tail, and the mmap-backed database it opens answers
// exactly like a heap database over the same data and parameters.
func TestApproxPagedAdoptsPersistedSketches(t *testing.T) {
	const n = 220
	rng := rand.New(rand.NewSource(83))
	ids := make([]uint64, n)
	sets := make([][][]float64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
		sets[i] = randomQuery(rng)
	}
	cfg := Config{Dim: 4, MaxCard: 5, Omega: []float64{0.3, -0.1, 0.7, 0.2}}
	path := filepath.Join(t.TempDir(), "approx.vsnap")
	i := 0
	mapped, err := BulkBuildFromStream(path, cfg, 0, func() (uint64, vectorset.Flat, error) {
		if i == n {
			return 0, vectorset.Flat{}, io.EOF
		}
		i++
		return ids[i-1], vectorset.FlatFromRows(sets[i-1]), nil
	}, LoadOptions{Approx: testApprox()})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	r, err := snapshot.OpenPaged(path, snapshot.PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasSketches() {
		r.Close()
		t.Fatal("stream-built snapshot carries no sketch tail")
	}
	r.Close()

	heap, err := Open(Config{Dim: 4, MaxCard: 5, Omega: []float64{0.3, -0.1, 0.7, 0.2}, Approx: testApprox()})
	if err != nil {
		t.Fatal(err)
	}
	if err := heap.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	qrng := rand.New(rand.NewSource(6))
	for qi := 0; qi < 8; qi++ {
		q := randomQuery(qrng)
		if got, want := one(mapped, Query{Set: q, Kind: KNN, K: 10, Approx: true}), one(heap, Query{Set: q, Kind: KNN, K: 10, Approx: true}); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: mapped and heap tiers disagree:\n%v\n%v", qi, got, want)
		}
	}
	if mapped.Stats().SketchCandidates == 0 {
		t.Fatal("mapped database proposed no candidates")
	}
}
