package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vsdb"
)

// buildDB returns a small random database plus its tracker.
func buildDB(t *testing.T, n int) (*vsdb.DB, *storage.Tracker) {
	t.Helper()
	var tr storage.Tracker
	rng := rand.New(rand.NewSource(42))
	db, err := vsdb.Open(vsdb.Config{Dim: 3, MaxCard: 4, Tracker: &tr})
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
	// Bulk insertion folds the objects into the filter index (the serving
	// configuration), so metrics tests observe filter selectivity and
	// paged-file I/O instead of delta-memtable scans.
	if err := db.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	return db, &tr
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestNewRequiresDB(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without DB accepted")
	}
}

func TestHealthz(t *testing.T) {
	db, _ := buildDB(t, 15)
	_, ts := newTestServer(t, Config{DB: db})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Objects != 15 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestKNNMatchesDirectQuery(t *testing.T) {
	db, _ := buildDB(t, 40)
	_, ts := newTestServer(t, Config{DB: db})
	q := [][]float64{{0.1, -0.2, 0.3}, {1, 0, -1}}
	resp, body := postJSON(t, ts.URL+"/knn", QueryRequest{Set: q, K: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	want := db.KNN(q, 7)
	if len(qr.Neighbors) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(qr.Neighbors), len(want))
	}
	for i, nb := range qr.Neighbors {
		if nb.ID != want[i].ID || nb.Dist != want[i].Dist {
			t.Fatalf("neighbor %d = %+v, want %+v", i, nb, want[i])
		}
	}
	if qr.Cached {
		t.Fatal("first query reported as cached")
	}
}

func TestKNNByStoredID(t *testing.T) {
	db, _ := buildDB(t, 30)
	_, ts := newTestServer(t, Config{DB: db})
	id := uint64(4)
	resp, body := postJSON(t, ts.URL+"/knn", QueryRequest{ID: &id, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Neighbors) != 3 {
		t.Fatalf("got %d neighbors", len(qr.Neighbors))
	}
	// The stored object is its own nearest neighbor at distance 0.
	if qr.Neighbors[0].ID != id || qr.Neighbors[0].Dist != 0 {
		t.Fatalf("self neighbor = %+v", qr.Neighbors[0])
	}
}

func TestKNNCacheHit(t *testing.T) {
	db, _ := buildDB(t, 30)
	s, ts := newTestServer(t, Config{DB: db})
	q := QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 5}
	_, body1 := postJSON(t, ts.URL+"/knn", q)
	resp2, body2 := postJSON(t, ts.URL+"/knn", q)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	var a, b QueryResponse
	json.Unmarshal(body1, &a)
	json.Unmarshal(body2, &b)
	if !b.Cached {
		t.Fatal("repeat query not served from cache")
	}
	if len(a.Neighbors) != len(b.Neighbors) {
		t.Fatal("cached result differs")
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			t.Fatalf("cached neighbor %d differs", i)
		}
	}
	if got := s.MetricsSnapshot().Endpoints["knn"].CacheHits; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	// Different k must not collide with the cached entry.
	q.K = 6
	_, body3 := postJSON(t, ts.URL+"/knn", q)
	var c QueryResponse
	json.Unmarshal(body3, &c)
	if c.Cached {
		t.Fatal("different k served from cache")
	}
	if len(c.Neighbors) != 6 {
		t.Fatalf("k=6 returned %d neighbors", len(c.Neighbors))
	}
}

func TestRangeMatchesDirectQuery(t *testing.T) {
	db, _ := buildDB(t, 40)
	_, ts := newTestServer(t, Config{DB: db})
	q := [][]float64{{0, 0, 0}}
	eps := 2.5
	resp, body := postJSON(t, ts.URL+"/range", QueryRequest{Set: q, Eps: eps})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	want := db.Range(q, eps)
	if len(qr.Neighbors) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(qr.Neighbors), len(want))
	}
	for i, nb := range qr.Neighbors {
		if nb.ID != want[i].ID || nb.Dist != want[i].Dist {
			t.Fatalf("neighbor %d = %+v, want %+v", i, nb, want[i])
		}
	}
}

func TestBadRequests(t *testing.T) {
	db, _ := buildDB(t, 10)
	_, ts := newTestServer(t, Config{DB: db})
	id := uint64(3)
	cases := []struct {
		name string
		path string
		body interface{}
	}{
		{"knn no set", "/knn", QueryRequest{K: 3}},
		{"knn k=0", "/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}}},
		{"knn huge k", "/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 1 << 20}},
		{"knn wrong dim", "/knn", QueryRequest{Set: [][]float64{{1, 2}}, K: 3}},
		{"knn over card", "/knn", QueryRequest{Set: [][]float64{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}, K: 3}},
		{"knn set and id", "/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, ID: &id, K: 3}},
		{"knn unknown id", "/knn", func() QueryRequest { bad := uint64(999); return QueryRequest{ID: &bad, K: 3} }()},
		{"range negative eps", "/range", QueryRequest{Set: [][]float64{{1, 2, 3}}, Eps: -1}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q", tc.name, body)
		}
	}
	// Non-finite floats and invalid JSON cannot go through QueryRequest.
	for _, raw := range []string{
		`{"set": [[1, 2, NaN]], "k": 3}`,
		`{"set": [[1,2,3]], "k": 3`,
	} {
		resp, err := http.Post(ts.URL+"/knn", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("raw %q: status %d, want 400", raw, resp.StatusCode)
		}
	}
}

func TestObjectEndpoint(t *testing.T) {
	db, _ := buildDB(t, 12)
	_, ts := newTestServer(t, Config{DB: db})
	resp, err := http.Get(ts.URL + "/object/5")
	if err != nil {
		t.Fatal(err)
	}
	var obj ObjectResponse
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := db.Get(5)
	if obj.ID != 5 || len(obj.Set) != len(want) {
		t.Fatalf("object = %+v", obj)
	}
	for i := range want {
		for j := range want[i] {
			if obj.Set[i][j] != want[i][j] {
				t.Fatal("object set differs from stored set")
			}
		}
	}
	for path, code := range map[string]int{
		"/object/999": http.StatusNotFound,
		"/object/abc": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, code)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	db, tr := buildDB(t, 25)
	_, ts := newTestServer(t, Config{DB: db, Tracker: tr})
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/knn", QueryRequest{Set: [][]float64{{float64(i), 0, 0}}, K: 5})
	}
	postJSON(t, ts.URL+"/range", QueryRequest{Set: [][]float64{{0, 0, 0}}, Eps: 1})
	http.Get(ts.URL + "/object/1")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Objects != 25 || m.Workers < 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Endpoints["knn"].Count != 4 || m.Endpoints["range"].Count != 1 || m.Endpoints["object"].Count != 1 {
		t.Fatalf("endpoint counts = %+v", m.Endpoints)
	}
	if m.Refinements <= 0 || m.RefinedPerQuery <= 0 || m.CandidateRatio <= 0 || m.CandidateRatio > 1 {
		t.Fatalf("refinement accounting = %d / %.2f / %.3f", m.Refinements, m.RefinedPerQuery, m.CandidateRatio)
	}
	if m.IO.Pages <= 0 || m.IO.Bytes <= 0 || m.IO.SimulatedIOMS <= 0 {
		t.Fatalf("io = %+v", m.IO)
	}
	var total int64
	for _, b := range m.Endpoints["knn"].Latency {
		total += b.Count
	}
	if total != 4 {
		t.Fatalf("knn latency histogram sums to %d, want 4", total)
	}
}

// A request that cannot acquire a query slot inside the per-request
// budget gets 503 and is counted as a timeout. The single slot is held by
// the test, so the outcome is deterministic.
func TestRequestTimeout(t *testing.T) {
	db, _ := buildDB(t, 40)
	s, ts := newTestServer(t, Config{DB: db, Workers: 1, Timeout: 50 * time.Millisecond, CacheSize: -1})
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()
	resp, _ := postJSON(t, ts.URL+"/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := s.MetricsSnapshot().Endpoints["knn"].Timeouts; got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
}

// A request that misses its deadline while it searches frees its slot
// with its 503: the search runs on the handler goroutine under the
// request's context, and a shard stalled until that context ends gives
// up at the request's deadline, not at its own (5 s) one. The next
// request gets the one slot at once and answers 200.
func TestTimedOutRequestFreesSlot(t *testing.T) {
	var stall atomic.Bool
	c, err := cluster.New(cluster.Config{
		Shards:       2,
		Dim:          3,
		MaxCard:      4,
		ShardTimeout: 5 * time.Second,
		Fault: cluster.FaultFunc(func(ctx context.Context, _ int, op cluster.Op, _ int) error {
			if op == cluster.OpSearch && stall.Load() {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for id := uint64(1); id <= 20; id++ {
		x := float64(id)
		if err := c.Insert(id, [][]float64{{x, -x, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := newTestServer(t, Config{Cluster: c, Workers: 1, Timeout: 50 * time.Millisecond, CacheSize: -1})
	stall.Store(true)
	resp, body := postJSON(t, ts.URL+"/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled request: %d %s, want 503", resp.StatusCode, body)
	}
	stall.Store(false)
	start := time.Now()
	resp, body = postJSON(t, ts.URL+"/knn", QueryRequest{Set: [][]float64{{3, 2, 1}}, K: 5})
	if elapsed := time.Since(start); resp.StatusCode != http.StatusOK || elapsed > 200*time.Millisecond {
		t.Fatalf("request after a timed-out one: %d in %v (%s), want 200 within 200ms", resp.StatusCode, elapsed, body)
	}
	if got := s.MetricsSnapshot().Endpoints["knn"].Timeouts; got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	c.put(1, []Neighbor{{ID: 1}})
	c.put(2, []Neighbor{{ID: 2}})
	c.get(1) // 1 becomes most recent
	c.put(3, []Neighbor{{ID: 3}})
	if _, ok := c.get(2); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	// Disabled cache never stores.
	d := newQueryCache(-1)
	d.put(1, nil)
	if _, ok := d.get(1); ok || d.len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// Example of the full flow for the docs: knn by id via fmt-constructed body.
func TestQueryByRawBody(t *testing.T) {
	db, _ := buildDB(t, 10)
	_, ts := newTestServer(t, Config{DB: db})
	resp, err := http.Post(ts.URL+"/knn", "application/json",
		strings.NewReader(fmt.Sprintf(`{"id": %d, "k": 2}`, 7)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestJSONBodyCapsEveryEndpoint: every endpoint that decodes a JSON body
// reads at most MaxBodyBytes of it. A body one byte over the cap gets 413
// — never a 500 and never a decoded request — in single-database and
// cluster mode; a body exactly at the cap is decoded as usual. The
// padding sits inside the JSON object, so the decoder has to read every
// byte to finish the value.
func TestJSONBodyCapsEveryEndpoint(t *testing.T) {
	const capBytes = 2048
	body := func(tail string, size int) string {
		return "{" + strings.Repeat(" ", size-1-len(tail)) + tail
	}
	cases := []struct{ path, tail string }{
		{"/knn", `"set": [[1,2,3]], "k": 3}`},
		{"/range", `"set": [[1,2,3]], "eps": 1}`},
		{"/knn/batch", `"queries": [{"id": 1, "k": 3}]}`},
		{"/query/mesh/batch", `"queries": [{"stl": "eA==", "k": 3}]}`},
		{"/insert", `"id": 9001, "set": [[1,2,3]]}`},
		{"/delete", `"id": 1}`},
		{"/compact", `}`},
	}
	db, _ := buildDB(t, 30)
	_, single := newTestServer(t, Config{DB: db, MaxBodyBytes: capBytes})
	_, sharded := newTestServer(t, Config{Cluster: buildCluster(t, 30, 3, false), MaxBodyBytes: capBytes})
	for _, mode := range []struct{ name, url string }{{"single", single.URL}, {"cluster", sharded.URL}} {
		for _, tc := range cases {
			for _, size := range []int{capBytes + 1, capBytes} {
				resp, err := http.Post(mode.url+tc.path, "application/json", strings.NewReader(body(tc.tail, size)))
				if err != nil {
					t.Fatal(err)
				}
				var er errorResponse
				json.NewDecoder(resp.Body).Decode(&er)
				resp.Body.Close()
				switch {
				case resp.StatusCode >= 500:
					t.Errorf("%s %s, %d-byte body: status %d (%s)", mode.name, tc.path, size, resp.StatusCode, er.Error)
				case size > capBytes && resp.StatusCode != http.StatusRequestEntityTooLarge:
					t.Errorf("%s %s, %d-byte body: status %d, want 413", mode.name, tc.path, size, resp.StatusCode)
				case size > capBytes && !strings.Contains(er.Error, "body exceeds"):
					t.Errorf("%s %s: 413 error %q does not name the cap", mode.name, tc.path, er.Error)
				case size == capBytes && resp.StatusCode == http.StatusRequestEntityTooLarge:
					t.Errorf("%s %s: a body exactly at the cap got 413", mode.name, tc.path)
				}
			}
		}
	}
}
