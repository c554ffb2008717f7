package server

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// buildCluster returns a populated sharded cluster holding exactly the
// objects buildDB would produce for the same n, so the two serving modes
// can be compared response-for-response.
func buildCluster(t *testing.T, n, shards int, partial bool) *cluster.DB {
	t.Helper()
	c, err := cluster.New(cluster.Config{Shards: shards, Dim: 3, MaxCard: 4, Partial: partial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rng := rand.New(rand.NewSource(42))
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
	return c
}

func TestNewRejectsBothBackends(t *testing.T) {
	db, _ := buildDB(t, 2)
	c := buildCluster(t, 2, 2, false)
	if _, err := New(Config{DB: db, Cluster: c}); err == nil {
		t.Fatal("New with both DB and Cluster accepted")
	}
}

// The coordinator behind /knn and /range must be response-identical to
// the single-database server holding the same objects.
func TestClusterEndpointParity(t *testing.T) {
	db, _ := buildDB(t, 40)
	_, single := newTestServer(t, Config{DB: db})
	_, sharded := newTestServer(t, Config{Cluster: buildCluster(t, 40, 4, false)})

	for _, tc := range []struct {
		path string
		req  QueryRequest
	}{
		{"/knn", QueryRequest{Set: [][]float64{{0.1, -0.2, 0.3}, {1, 0, -1}}, K: 7}},
		{"/knn", QueryRequest{Set: [][]float64{{0, 0, 0}}, K: 40}},
		{"/range", QueryRequest{Set: [][]float64{{0, 0, 0}}, Eps: 2.5}},
	} {
		_, b1 := postJSON(t, single.URL+tc.path, tc.req)
		_, b2 := postJSON(t, sharded.URL+tc.path, tc.req)
		var r1, r2 QueryResponse
		if err := json.Unmarshal(b1, &r1); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b2, &r2); err != nil {
			t.Fatal(err)
		}
		if r2.Partial || r2.ShardErrors != nil {
			t.Fatalf("%s: healthy cluster reported partial", tc.path)
		}
		if len(r1.Neighbors) != len(r2.Neighbors) {
			t.Fatalf("%s: %d vs %d neighbors", tc.path, len(r1.Neighbors), len(r2.Neighbors))
		}
		for i := range r1.Neighbors {
			if r1.Neighbors[i] != r2.Neighbors[i] {
				t.Fatalf("%s: neighbor %d differs: %+v vs %+v", tc.path, i, r1.Neighbors[i], r2.Neighbors[i])
			}
		}
	}
}

func TestClusterStatusEndpoint(t *testing.T) {
	// Single mode: a single database is one strict shard.
	db, _ := buildDB(t, 5)
	_, single := newTestServer(t, Config{DB: db})
	resp, err := http.Get(single.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cr ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cr.Shards != 1 || cr.Mode != "strict" || cr.Objects != 5 || len(cr.Status) != 1 || !cr.Status[0].Up {
		t.Fatalf("/cluster in single mode: %d %+v", resp.StatusCode, cr)
	}

	c := buildCluster(t, 24, 3, true)
	_, ts := newTestServer(t, Config{Cluster: c})
	resp, err = http.Get(ts.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	cr = ClusterResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.Shards != 3 || cr.Mode != "partial" || cr.Objects != 24 || len(cr.Status) != 3 {
		t.Fatalf("/cluster = %+v", cr)
	}
	up := 0
	for _, st := range cr.Status {
		if st.Up {
			up++
		}
	}
	if up != 3 {
		t.Fatalf("%d shards up, want 3", up)
	}
}

func TestClusterMetricsGauges(t *testing.T) {
	c := buildCluster(t, 20, 4, false)
	s, ts := newTestServer(t, Config{Cluster: c})
	postJSON(t, ts.URL+"/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 5})
	m := s.MetricsSnapshot()
	if m.ClusterShards != 4 || len(m.Shards) != 4 {
		t.Fatalf("cluster gauges = %d shards, %d status rows", m.ClusterShards, len(m.Shards))
	}
	var queries int64
	for _, st := range m.Shards {
		queries += st.Queries
	}
	if queries != 4 {
		t.Fatalf("per-shard query gauges sum to %d, want 4", queries)
	}
	// A single database reports itself as one shard.
	db, _ := buildDB(t, 5)
	s2, ts2 := newTestServer(t, Config{DB: db})
	postJSON(t, ts2.URL+"/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 5})
	if m2 := s2.MetricsSnapshot(); m2.ClusterShards != 1 || len(m2.Shards) != 1 || m2.Shards[0].Queries != 1 || m2.Shards[0].Objects != 5 {
		t.Fatalf("single-mode gauges = %d shards, %+v", m2.ClusterShards, m2.Shards)
	}
}

// Strict mode: a dead shard turns queries and routed mutations into 502
// (the coordinator could not complete), never 500.
func TestClusterStrictShardFailureIs502(t *testing.T) {
	c := buildCluster(t, 30, 4, false)
	_, ts := newTestServer(t, Config{Cluster: c})
	const down = 2
	if err := c.Kill(down); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 5})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict /knn with dead shard: %d (%s)", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/range", QueryRequest{Set: [][]float64{{1, 2, 3}}, Eps: 1})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict /range with dead shard: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/compact", struct{}{})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("/compact with dead shard: %d", resp.StatusCode)
	}
	// A mutation routed to the dead shard fails 502; one routed to a live
	// shard succeeds.
	var deadID, liveID uint64
	for id := uint64(1000); ; id++ {
		if c.ShardOf(id) == down && deadID == 0 {
			deadID = id
		}
		if c.ShardOf(id) != down && liveID == 0 {
			liveID = id
		}
		if deadID != 0 && liveID != 0 {
			break
		}
	}
	set := [][]float64{{1, 2, 3}}
	resp, _ = postJSON(t, ts.URL+"/insert", MutateRequest{ID: deadID, Set: set})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("insert to dead shard: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/insert", MutateRequest{ID: liveID, Set: set})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert to live shard: %d", resp.StatusCode)
	}
}

// Partial mode: a dead shard degrades /knn to a flagged 200 with
// per-shard error detail — and the degraded answer is never cached, so
// a recovered shard's objects reappear immediately.
func TestClusterPartialResponseNotCached(t *testing.T) {
	c := buildCluster(t, 30, 3, true)
	_, ts := newTestServer(t, Config{Cluster: c})
	q := QueryRequest{Set: [][]float64{{0.5, 0.5, 0.5}}, K: 10}

	// Healthy baseline, cached.
	_, body := postJSON(t, ts.URL+"/knn", q)
	var healthy QueryResponse
	if err := json.Unmarshal(body, &healthy); err != nil {
		t.Fatal(err)
	}
	if healthy.Partial {
		t.Fatal("healthy query flagged partial")
	}

	const down = 1
	if err := c.Kill(down); err != nil {
		t.Fatal(err)
	}
	// A kill does not advance the cluster epoch (only mutations do), so
	// the healthy entry is still reachable — and being a complete answer
	// it is legitimately served. A cached answer must never be partial.
	_, body = postJSON(t, ts.URL+"/knn", q)
	var repeat QueryResponse
	if err := json.Unmarshal(body, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached || repeat.Partial {
		t.Fatalf("repeat of healthy query after kill = %+v", repeat)
	}
	// A fresh query must be served live, flagged, with shard detail...
	q2 := QueryRequest{Set: [][]float64{{-0.5, 0.25, 0.75}}, K: 10}
	_, body = postJSON(t, ts.URL+"/knn", q2)
	var degraded QueryResponse
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.Cached || !degraded.Partial || len(degraded.ShardErrors) != 1 {
		t.Fatalf("degraded response = %+v", degraded)
	}
	if _, ok := degraded.ShardErrors["1"]; !ok {
		t.Fatalf("shard_errors = %v", degraded.ShardErrors)
	}
	// ...and must NOT be cached: re-issuing it is another live query.
	_, body = postJSON(t, ts.URL+"/knn", q2)
	var again QueryResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("partial result was cached")
	}
	if !again.Partial {
		t.Fatalf("repeat degraded query = %+v", again)
	}
	// Recovery: reopen the shard and the same query is whole again.
	if err := c.Reopen(down); err != nil {
		t.Fatal(err)
	}
	_, body = postJSON(t, ts.URL+"/knn", q2)
	var recovered QueryResponse
	if err := json.Unmarshal(body, &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.Partial {
		t.Fatalf("post-reopen query still partial: %+v", recovered)
	}
}

func TestClusterMutationConflictCodes(t *testing.T) {
	c := buildCluster(t, 10, 2, false)
	_, ts := newTestServer(t, Config{Cluster: c})
	set := [][]float64{{1, 2, 3}}
	resp, _ := postJSON(t, ts.URL+"/insert", MutateRequest{ID: 3, Set: set})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate insert through coordinator: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/delete", MutateRequest{ID: 9999})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing delete through coordinator: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/insert", MutateRequest{ID: 100, Set: set})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d", resp.StatusCode)
	}
	if got := c.Get(100); got == nil {
		t.Fatal("coordinator insert not visible in the cluster")
	}
}

// Malformed parameters map to 400 — never 500 — on every query and
// mutation endpoint, in both serving modes. This pins the /compact
// malformed-body fix (it used to ignore the body and return 200) and
// the coordinator routes' validation.
func TestMalformedRequests400BothModes(t *testing.T) {
	db, _ := buildDB(t, 10)
	_, single := newTestServer(t, Config{DB: db})
	_, sharded := newTestServer(t, Config{Cluster: buildCluster(t, 10, 2, false)})

	cases := []struct {
		name, path, raw string
	}{
		{"knn bad json", "/knn", `{"set": [[1,2,3]], "k": 3`},
		{"knn k=0", "/knn", `{"set": [[1,2,3]]}`},
		{"knn k<0", "/knn", `{"set": [[1,2,3]], "k": -4}`},
		{"knn huge k", "/knn", `{"set": [[1,2,3]], "k": 1048576}`},
		{"knn empty set", "/knn", `{"k": 3}`},
		{"knn wrong dim", "/knn", `{"set": [[1,2]], "k": 3}`},
		{"knn nan", "/knn", `{"set": [[1,2,NaN]], "k": 3}`},
		{"range bad json", "/range", `{"set": [[1,2,3]], "eps"`},
		{"range eps<0", "/range", `{"set": [[1,2,3]], "eps": -1}`},
		{"range eps inf", "/range", `{"set": [[1,2,3]], "eps": 1e999}`},
		{"insert bad json", "/insert", `{"id": 1, "set": [[1,2,3]]`},
		{"insert empty set", "/insert", `{"id": 1}`},
		{"insert wrong dim", "/insert", `{"id": 1, "set": [[1,2]]}`},
		{"insert non-finite", "/insert", `{"id": 1, "set": [[1,2,Infinity]]}`},
		{"delete bad json", "/delete", `{"id": }`},
		{"compact bad json", "/compact", `{`},
		{"compact trailing garbage", "/compact", `not json`},
		// /query/mesh parameter validation fires before the body is read,
		// so these hold on any backend dimension (body-level cases live in
		// TestQueryMeshMalformedBothModes against 6-d backends).
		{"mesh no params", "/query/mesh", `solid x`},
		{"mesh k and eps", "/query/mesh?k=3&eps=1", `solid x`},
		{"mesh k=0", "/query/mesh?k=0", `solid x`},
		{"mesh bad dist", "/query/mesh?k=3&dist=hausdorff", `solid x`},
		{"mesh i without partial", "/query/mesh?k=3&i=2", `solid x`},
		{"mesh batch bad json", "/query/mesh/batch", `{"queries": [`},
		{"mesh batch empty", "/query/mesh/batch", `{"queries": []}`},
	}
	for _, mode := range []struct {
		name string
		url  string
	}{{"single", single.URL}, {"cluster", sharded.URL}} {
		for _, tc := range cases {
			resp, err := http.Post(mode.url+tc.path, "application/json", strings.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			var er errorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", mode.name, tc.name, resp.StatusCode)
			}
			if er.Error == "" {
				t.Errorf("%s %s: empty error body", mode.name, tc.name)
			}
		}
		// Well-formed compact bodies still succeed: empty and {}.
		for _, raw := range []string{``, `{}`} {
			resp, err := http.Post(mode.url+"/compact", "application/json", strings.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s compact body %q: status %d, want 200", mode.name, raw, resp.StatusCode)
			}
		}
	}
}

// The coordinator path keeps vsdb's conflict sentinels intact end to
// end (routing wraps errors with shard context).
func TestClusterErrorWrapping(t *testing.T) {
	c := buildCluster(t, 10, 2, false)
	if err := c.Insert(3, [][]float64{{1, 2, 3}}); !errors.Is(err, vsdb.ErrExists) {
		t.Fatalf("wrapped duplicate: %v", err)
	}
}
