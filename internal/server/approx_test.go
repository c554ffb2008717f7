package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// serverApprox is the tier configuration the approx server tests run
// under: small and fast, non-default seed.
func serverApprox() *vsdb.ApproxOptions {
	return &vsdb.ApproxOptions{Bits: 128, Active: 12, Seed: 7, KNNFactor: 4, MinCandidates: 16, RangeCandidates: 32}
}

// buildApproxDB is buildDB with the approximate sketch tier enabled.
// Bulk insertion makes every object base-resident, so the tier actually
// proposes candidates instead of deferring to the exact delta scan.
func buildApproxDB(t *testing.T, n int) *vsdb.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db, err := vsdb.Open(vsdb.Config{Dim: 3, MaxCard: 4, Approx: serverApprox()})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, n)
	sets := make([][][]float64, n)
	for i := 0; i < n; i++ {
		card := 1 + rng.Intn(4)
		set := make([][]float64, card)
		for j := range set {
			set[j] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		ids[i], sets[i] = uint64(i), set
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	return db
}

func decodeQuery(t *testing.T, body []byte) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

// searchOne answers a single query straight from the engine — the
// reference the HTTP answers are compared against.
func searchOne(db *vsdb.DB, q vsdb.Query) []vsdb.Neighbor { return db.Search([]vsdb.Query{q})[0] }

func wantNeighbors(t *testing.T, got []Neighbor, want []vsdb.Neighbor, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d", label, len(got), len(want))
	}
	for i, nb := range got {
		if nb.ID != want[i].ID || nb.Dist != want[i].Dist {
			t.Fatalf("%s: neighbor %d = %+v, want %+v", label, i, nb, want[i])
		}
	}
}

// TestApproxDefaultAndOverride: with Config.Approx the server answers
// /knn and /range through the approximate tier, a per-request
// "approx": false forces the exact engine, and on an approx-off server
// "approx": true opts a single request in.
func TestApproxDefaultAndOverride(t *testing.T) {
	db := buildApproxDB(t, 120)
	_, on := newTestServer(t, Config{DB: db, Approx: true})
	q := [][]float64{{0.1, -0.2, 0.3}, {1, 0, -1}}
	off := false

	_, body := postJSON(t, on.URL+"/knn", QueryRequest{Set: q, K: 7})
	wantNeighbors(t, decodeQuery(t, body).Neighbors, searchOne(db, vsdb.Query{Set: q, Kind: vsdb.KNN, K: 7, Approx: true}), "default approx /knn")
	_, body = postJSON(t, on.URL+"/knn", QueryRequest{Set: q, K: 7, Approx: &off})
	wantNeighbors(t, decodeQuery(t, body).Neighbors, db.KNN(q, 7), "approx=false /knn")
	_, body = postJSON(t, on.URL+"/range", QueryRequest{Set: q, Eps: 2.0})
	wantNeighbors(t, decodeQuery(t, body).Neighbors, searchOne(db, vsdb.Query{Set: q, Kind: vsdb.Range, Eps: 2.0, Approx: true}), "default approx /range")
	_, body = postJSON(t, on.URL+"/range", QueryRequest{Set: q, Eps: 2.0, Approx: &off})
	wantNeighbors(t, decodeQuery(t, body).Neighbors, db.Range(q, 2.0), "approx=false /range")

	_, exact := newTestServer(t, Config{DB: db})
	use := true
	_, body = postJSON(t, exact.URL+"/knn", QueryRequest{Set: q, K: 7})
	wantNeighbors(t, decodeQuery(t, body).Neighbors, db.KNN(q, 7), "default exact /knn")
	_, body = postJSON(t, exact.URL+"/knn", QueryRequest{Set: q, K: 7, Approx: &use})
	wantNeighbors(t, decodeQuery(t, body).Neighbors, searchOne(db, vsdb.Query{Set: q, Kind: vsdb.KNN, K: 7, Approx: true}), "approx=true /knn")
}

// TestApproxCacheSeparation: an exact result cached for a query must not
// answer the approximate form of the same query, and vice versa — the
// query mode is part of the cache key.
func TestApproxCacheSeparation(t *testing.T) {
	db := buildApproxDB(t, 120)
	_, ts := newTestServer(t, Config{DB: db})
	q := [][]float64{{0.4, 0.1, -0.7}}
	use := true

	_, body := postJSON(t, ts.URL+"/knn", QueryRequest{Set: q, K: 9})
	if decodeQuery(t, body).Cached {
		t.Fatal("first exact query reported cached")
	}
	_, body = postJSON(t, ts.URL+"/knn", QueryRequest{Set: q, K: 9, Approx: &use})
	qr := decodeQuery(t, body)
	if qr.Cached {
		t.Fatal("approximate query served from the exact cache entry")
	}
	wantNeighbors(t, qr.Neighbors, searchOne(db, vsdb.Query{Set: q, Kind: vsdb.KNN, K: 9, Approx: true}), "approx after exact")

	// Both modes now cached, each under its own key.
	_, body = postJSON(t, ts.URL+"/knn", QueryRequest{Set: q, K: 9})
	qr = decodeQuery(t, body)
	if !qr.Cached {
		t.Fatal("repeated exact query not cached")
	}
	wantNeighbors(t, qr.Neighbors, db.KNN(q, 9), "cached exact")
	_, body = postJSON(t, ts.URL+"/knn", QueryRequest{Set: q, K: 9, Approx: &use})
	qr = decodeQuery(t, body)
	if !qr.Cached {
		t.Fatal("repeated approximate query not cached")
	}
	wantNeighbors(t, qr.Neighbors, searchOne(db, vsdb.Query{Set: q, Kind: vsdb.KNN, K: 9, Approx: true}), "cached approx")
}

// TestApproxBatchGrouping: a /knn/batch mixing ks and query modes
// answers every entry exactly as the corresponding single /knn call.
func TestApproxBatchGrouping(t *testing.T) {
	db := buildApproxDB(t, 150)
	_, ts := newTestServer(t, Config{DB: db})
	rng := rand.New(rand.NewSource(11))
	use, off := true, false
	queries := make([]QueryRequest, 8)
	for i := range queries {
		card := 1 + rng.Intn(3)
		set := make([][]float64, card)
		for j := range set {
			set[j] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		queries[i] = QueryRequest{Set: set, K: 3 + i%2*4}
		switch i % 3 {
		case 0:
			queries[i].Approx = &use
		case 1:
			queries[i].Approx = &off
		}
	}
	resp, body := postJSON(t, ts.URL+"/knn/batch", BatchRequest{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(br.Results), len(queries))
	}
	for i, q := range queries {
		var want []vsdb.Neighbor
		if q.Approx != nil && *q.Approx {
			want = searchOne(db, vsdb.Query{Set: q.Set, Kind: vsdb.KNN, K: q.K, Approx: true})
		} else {
			want = db.KNN(q.Set, q.K)
		}
		wantNeighbors(t, br.Results[i].Neighbors, want, "batch entry")
	}
}

// TestApproxMetricsSection: an approx-enabled server reports the
// "approx" gauge block — query count, candidate totals and, with
// ApproxSample, a sampled recall in [0, 1] — while an exact-only server
// omits it entirely.
func TestApproxMetricsSection(t *testing.T) {
	db := buildApproxDB(t, 150)
	s, ts := newTestServer(t, Config{DB: db, Approx: true, ApproxSample: 2})
	rng := rand.New(rand.NewSource(13))
	const queries = 6
	for i := 0; i < queries; i++ {
		q := [][]float64{{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}}
		resp, body := postJSON(t, ts.URL+"/knn", QueryRequest{Set: q, K: 5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	snap := s.MetricsSnapshot()
	a := snap.Approx
	if a == nil {
		t.Fatal("approx-enabled server omitted the approx metrics section")
	}
	if !a.Enabled || !a.Default {
		t.Fatalf("approx section flags = %+v", a)
	}
	if a.Queries != queries {
		t.Fatalf("approx queries = %d, want %d", a.Queries, queries)
	}
	if a.SketchCandidates <= 0 {
		t.Fatalf("sketch candidates = %d, want > 0", a.SketchCandidates)
	}
	if want := int64(queries / 2); a.RecallSamples != want {
		t.Fatalf("recall samples = %d, want %d", a.RecallSamples, want)
	}
	if a.SampledRecall < 0 || a.SampledRecall > 1 {
		t.Fatalf("sampled recall = %v outside [0, 1]", a.SampledRecall)
	}

	exactDB, _ := buildDB(t, 30)
	se, tse := newTestServer(t, Config{DB: exactDB})
	postJSON(t, tse.URL+"/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 3})
	if se.MetricsSnapshot().Approx != nil {
		t.Fatal("exact-only server reported an approx metrics section")
	}
}

// TestApproxClusterParity: in coordinator mode the approximate routes
// answer exactly as the cluster's own approximate scatter-gather, and
// per-request overrides reach every shard.
func TestApproxClusterParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c, err := cluster.New(cluster.Config{Shards: 4, Dim: 3, MaxCard: 4, Approx: serverApprox()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	const n = 200
	ids := make([]uint64, n)
	sets := make([][][]float64, n)
	for i := 0; i < n; i++ {
		card := 1 + rng.Intn(4)
		set := make([][]float64, card)
		for j := range set {
			set[j] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		ids[i], sets[i] = uint64(i), set
	}
	if err := c.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Cluster: c, Approx: true})
	q := [][]float64{{0.2, -0.4, 0.6}}
	_, body := postJSON(t, ts.URL+"/knn", QueryRequest{Set: q, K: 8})
	want, err := c.Search([]vsdb.Query{{Set: q, Kind: vsdb.KNN, K: 8, Approx: true}})
	if err != nil {
		t.Fatal(err)
	}
	wantNeighbors(t, decodeQuery(t, body).Neighbors, want[0].Neighbors, "cluster approx /knn")

	off := false
	_, body = postJSON(t, ts.URL+"/knn", QueryRequest{Set: q, K: 8, Approx: &off})
	exact, err := c.KNN(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantNeighbors(t, decodeQuery(t, body).Neighbors, exact.Neighbors, "cluster exact /knn")
}
