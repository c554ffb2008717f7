package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/meshquery"
	"github.com/voxset/voxset/internal/vsdb"
)

// testMeshes returns n distinct solid meshes — spheres and boxes of
// varying proportions, so their cover sets genuinely differ.
func testMeshes(n int) []*mesh.Mesh {
	out := make([]*mesh.Mesh, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = mesh.NewSphere(geom.Vec3{}, 0.5+0.1*float64(i), 16+i, 12)
			out[i].Name = fmt.Sprintf("sphere-%d", i)
		} else {
			out[i] = mesh.NewBox(geom.Vec3{}, geom.Vec3{X: 1, Y: 0.2 + 0.15*float64(i), Z: 0.5})
			out[i].Name = fmt.Sprintf("box-%d", i)
		}
	}
	return out
}

func stlBytes(t testing.TB, m *mesh.Mesh) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mesh.WriteSTL(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// extractAll builds the offline sets the parity checks compare against.
func extractAll(t testing.TB, meshes []*mesh.Mesh) [][][]float64 {
	t.Helper()
	sets := make([][][]float64, len(meshes))
	for i, m := range meshes {
		ex, err := meshquery.Extract(m, meshquery.DefaultConfig())
		if err != nil {
			t.Fatalf("mesh %d: %v", i, err)
		}
		sets[i] = ex.Set
	}
	return sets
}

// buildMeshDB loads the extracted sets into a 6-d single database.
func buildMeshDB(t testing.TB, sets [][][]float64) *vsdb.DB {
	t.Helper()
	db, err := vsdb.Open(vsdb.Config{Dim: 6, MaxCard: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ids := make([]uint64, len(sets))
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	return db
}

// buildMeshCluster loads the same sets into a sharded cluster.
func buildMeshCluster(t testing.TB, shards int, sets [][][]float64) *cluster.DB {
	t.Helper()
	c, err := cluster.New(cluster.Config{Shards: shards, Dim: 6, MaxCard: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ids := make([]uint64, len(sets))
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := c.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	return c
}

func postMesh(t *testing.T, url string, body []byte) (*http.Response, MeshQueryResponse, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var out MeshQueryResponse
	json.Unmarshal(buf.Bytes(), &out)
	return resp, out, buf.String()
}

// searchOne answers a single query straight from the engine — the
// reference the HTTP answers are compared against.
func searchOne(db *vsdb.DB, q vsdb.Query) []vsdb.Neighbor {
	out, err := db.Search(context.Background(), []vsdb.Query{q})
	if err != nil {
		panic(err)
	}
	return out[0]
}

// TestQueryMeshParityBothModes is the acceptance contract: a POST
// /query/mesh answer must be byte-identical to extracting the same mesh
// offline (internal/meshquery) and querying by vector set directly — in
// single-database and 4-shard cluster modes, under minimal matching,
// partial matching, and ε-range.
func TestQueryMeshParityBothModes(t *testing.T) {
	meshes := testMeshes(12)
	sets := extractAll(t, meshes)
	db := buildMeshDB(t, sets)
	c := buildMeshCluster(t, 4, sets)
	_, single := newTestServer(t, Config{DB: db})
	_, sharded := newTestServer(t, Config{Cluster: c})
	query := meshes[3]
	qset := sets[3]
	body := stlBytes(t, query)

	type check struct {
		params string
		want   []vsdb.Neighbor
	}
	checks := []check{
		{"k=5", db.KNN(qset, 5)},
		{"k=5&dist=minimal", db.KNN(qset, 5)},
		{"k=5&dist=partial", searchOne(db, vsdb.Query{Set: qset, Kind: vsdb.KNN, K: 5, Match: vsdb.SetQuery{Partial: true}})},
		{"k=5&dist=partial&i=3", searchOne(db, vsdb.Query{Set: qset, Kind: vsdb.KNN, K: 5, Match: vsdb.SetQuery{Partial: true, I: 3}})},
		{"eps=1.25", db.Range(qset, 1.25)},
		{"eps=1.25&dist=partial&i=2", searchOne(db, vsdb.Query{Set: qset, Kind: vsdb.Range, Eps: 1.25, Match: vsdb.SetQuery{Partial: true, I: 2}})},
	}
	for _, mode := range []struct {
		name, url string
	}{{"single", single.URL}, {"cluster", sharded.URL}} {
		for _, ck := range checks {
			resp, out, raw := postMesh(t, mode.url+"/query/mesh?"+ck.params, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", mode.name, ck.params, resp.StatusCode, raw)
			}
			if !reflect.DeepEqual(out.Set, qset) {
				t.Fatalf("%s %s: served extraction %v != offline extraction %v", mode.name, ck.params, out.Set, qset)
			}
			got := make([]vsdb.Neighbor, len(out.Neighbors))
			for i, nb := range out.Neighbors {
				got[i] = vsdb.Neighbor{ID: nb.ID, Dist: nb.Dist}
			}
			if !reflect.DeepEqual(got, ck.want) {
				t.Fatalf("%s %s: neighbors %v, offline %v", mode.name, ck.params, got, ck.want)
			}
			if out.Triangles != len(query.Triangles) || out.Voxels == 0 {
				t.Fatalf("%s %s: bad pipeline metadata %+v", mode.name, ck.params, out)
			}
		}
	}
}

// TestQueryMeshSharesCacheWithKNN: a minimal-matching mesh query and a
// /knn query carrying the same extracted set hit the same cache entry —
// the visible form of "the mesh endpoint changes the transport, not the
// answer".
func TestQueryMeshSharesCacheWithKNN(t *testing.T) {
	meshes := testMeshes(8)
	sets := extractAll(t, meshes)
	db := buildMeshDB(t, sets)
	_, ts := newTestServer(t, Config{DB: db})
	if resp, _ := postJSON(t, ts.URL+"/knn", QueryRequest{Set: sets[2], K: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming /knn: %d", resp.StatusCode)
	}
	resp, out, raw := postMesh(t, ts.URL+"/query/mesh?k=3", stlBytes(t, meshes[2]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mesh query: %d: %s", resp.StatusCode, raw)
	}
	if !out.Cached {
		t.Fatal("mesh query did not hit the /knn-primed cache entry")
	}
}

// TestQueryMeshMalformedBothModes extends the malformed-request table
// to the upload endpoints against cover-feature (6-d) backends, where
// the body actually reaches the STL parser.
func TestQueryMeshMalformedBothModes(t *testing.T) {
	sets := extractAll(t, testMeshes(6))
	_, single := newTestServer(t, Config{DB: buildMeshDB(t, sets)})
	_, sharded := newTestServer(t, Config{Cluster: buildMeshCluster(t, 2, sets)})
	truncated := stlBytes(t, testMeshes(1)[0])[:97] // mid-triangle-record cut
	withVertex := func(x float32) string {          // the first vertex's x, overwritten
		data := stlBytes(t, testMeshes(1)[0])
		binary.LittleEndian.PutUint32(data[84+12:], math.Float32bits(x))
		return string(data)
	}
	cases := []struct {
		name, path, raw string
		want            int
	}{
		{"empty body", "/query/mesh?k=3", "", http.StatusBadRequest},
		{"non-stl bytes", "/query/mesh?k=3", "not a mesh at all, just prose", http.StatusBadRequest},
		{"truncated binary", "/query/mesh?k=3", string(truncated), http.StatusBadRequest},
		{"NaN vertex", "/query/mesh?k=3", withVertex(float32(math.NaN())), http.StatusBadRequest},
		{"Inf vertex", "/query/mesh?k=3", withVertex(float32(math.Inf(-1))), http.StatusBadRequest},
		{"ascii NaN vertex", "/query/mesh?k=3", "solid s\nfacet normal 0 0 1\nouter loop\nvertex NaN 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid s\n", http.StatusBadRequest},
		{"no params", "/query/mesh", "x", http.StatusBadRequest},
		{"k and eps", "/query/mesh?k=3&eps=1", "x", http.StatusBadRequest},
		{"k=0", "/query/mesh?k=0", "x", http.StatusBadRequest},
		{"k huge", "/query/mesh?k=1048576", "x", http.StatusBadRequest},
		{"eps<0", "/query/mesh?eps=-1", "x", http.StatusBadRequest},
		{"bad dist", "/query/mesh?k=3&dist=hausdorff", "x", http.StatusBadRequest},
		{"i without partial", "/query/mesh?k=3&i=2", "x", http.StatusBadRequest},
		{"negative i", "/query/mesh?k=3&dist=partial&i=-1", "x", http.StatusBadRequest},
		{"batch bad json", "/query/mesh/batch", `{"queries": [`, http.StatusBadRequest},
		{"batch empty", "/query/mesh/batch", `{"queries": []}`, http.StatusBadRequest},
		{"batch bad entry", "/query/mesh/batch", `{"queries": [{"stl": "bm90IGFuIHN0bA==", "k": 3}]}`, http.StatusBadRequest},
	}
	for _, mode := range []struct {
		name, url string
	}{{"single", single.URL}, {"cluster", sharded.URL}} {
		for _, tc := range cases {
			resp, err := http.Post(mode.url+tc.path, "application/octet-stream", strings.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			var er errorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d", mode.name, tc.name, resp.StatusCode, tc.want)
			}
			if er.Error == "" {
				t.Errorf("%s %s: empty error body", mode.name, tc.name)
			}
			if strings.HasSuffix(tc.name, "vertex") && !strings.Contains(er.Error, "non-finite vertex") {
				t.Errorf("%s %s: error %q does not name the non-finite vertex", mode.name, tc.name, er.Error)
			}
		}
	}
}

// TestQueryMeshUploadFraming: the body buffer is sized from
// Content-Length when there is one and grown when there is not (a
// chunked upload); a mesh with one far-away but finite vertex is the
// pipeline's to answer or to refuse as degenerate, never a 5xx. All
// framings of one mesh answer identically.
func TestQueryMeshUploadFraming(t *testing.T) {
	sets := extractAll(t, testMeshes(6))
	_, ts := newTestServer(t, Config{DB: buildMeshDB(t, sets), CacheSize: -1})
	body := stlBytes(t, testMeshes(3)[2])
	_, want, _ := postMesh(t, ts.URL+"/query/mesh?k=3", body)
	if len(want.Neighbors) != 3 {
		t.Fatalf("sized upload: %d neighbors, want 3", len(want.Neighbors))
	}
	// io.MultiReader hides the length: net/http sends it chunked.
	resp, err := http.Post(ts.URL+"/query/mesh?k=3", "application/octet-stream", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got MeshQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(got.Neighbors, want.Neighbors) || !reflect.DeepEqual(got.Set, want.Set) {
		t.Fatalf("chunked upload: status %d, neighbors %v; sized upload gave %v", resp.StatusCode, got.Neighbors, want.Neighbors)
	}

	far := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(far[84+12:], math.Float32bits(1e30))
	if resp, _, raw := postMesh(t, ts.URL+"/query/mesh?k=3", far); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1e30 vertex: status %d (%s), want 200 or 400", resp.StatusCode, raw)
	}
}

// TestQueryMeshConcurrentUploads: bodies are read into pooled buffers and
// extracted in place, so concurrent uploads of different meshes — sized
// and chunked — must each get the set extracted offline from their own
// mesh, never one from a buffer another request is reusing.
func TestQueryMeshConcurrentUploads(t *testing.T) {
	meshes := testMeshes(6)
	sets := extractAll(t, meshes)
	_, ts := newTestServer(t, Config{DB: buildMeshDB(t, sets), CacheSize: -1})
	bodies := make([][]byte, len(meshes))
	for i, m := range meshes {
		bodies[i] = stlBytes(t, m)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 12; n++ {
				i := (w + n) % len(bodies)
				var body io.Reader = bytes.NewReader(bodies[i])
				if n%3 == 2 {
					body = io.MultiReader(body) // hides the length: sent chunked
				}
				resp, err := http.Post(ts.URL+"/query/mesh?k=2", "application/octet-stream", body)
				if err != nil {
					t.Error(err)
					return
				}
				var got MeshQueryResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !reflect.DeepEqual(got.Set, sets[i]) {
					t.Errorf("worker %d upload %d (mesh %d): status %d, err %v, set %v, want %v", w, n, i, resp.StatusCode, err, got.Set, sets[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestQueryMeshBodyCaps: uploads beyond MaxMeshBytes get 413 on the
// raw endpoint and per entry on the batch endpoint. (The JSON body cap
// is TestJSONBodyCapsEveryEndpoint's.)
func TestQueryMeshBodyCaps(t *testing.T) {
	sets := extractAll(t, testMeshes(6))
	db := buildMeshDB(t, sets)
	_, ts := newTestServer(t, Config{DB: db, MaxMeshBytes: 512, MaxBodyBytes: 4096})
	big := stlBytes(t, mesh.NewSphere(geom.Vec3{}, 1, 24, 16)) // ≫ 512 bytes
	resp, _, raw := postMesh(t, ts.URL+"/query/mesh?k=3", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized mesh: status %d (%s), want 413", resp.StatusCode, raw)
	}
	breq, _ := json.Marshal(MeshBatchRequest{Queries: []MeshBatchQuery{{STL: big, K: 3}}})
	if int64(len(breq)) < 4096 {
		// The batch body fits under MaxBodyBytes; the per-entry mesh cap
		// must still fire.
		resp2, err := http.Post(ts.URL+"/query/mesh/batch", "application/json", bytes.NewReader(breq))
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized batch entry: status %d, want 413", resp2.StatusCode)
		}
	}
}

// TestQueryMeshBatchParity: each batch entry answers exactly as a
// /query/mesh call carrying it, and cached entries are flagged.
func TestQueryMeshBatchParity(t *testing.T) {
	meshes := testMeshes(10)
	sets := extractAll(t, meshes)
	c := buildMeshCluster(t, 4, sets)
	_, ts := newTestServer(t, Config{Cluster: c})
	eps := 1.5
	entries := []MeshBatchQuery{
		{STL: stlBytes(t, meshes[1]), K: 4},
		{STL: stlBytes(t, meshes[2]), K: 3, Dist: "partial", I: 2},
		{STL: stlBytes(t, meshes[3]), Eps: &eps},
	}
	singles := make([]MeshQueryResponse, len(entries))
	for i, e := range entries {
		params := ""
		switch {
		case e.Dist != "":
			params = fmt.Sprintf("k=%d&dist=%s&i=%d", e.K, e.Dist, e.I)
		case e.Eps != nil:
			params = fmt.Sprintf("eps=%g", *e.Eps)
		default:
			params = fmt.Sprintf("k=%d", e.K)
		}
		resp, out, raw := postMesh(t, ts.URL+"/query/mesh?"+params, e.STL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("entry %d single: %d: %s", i, resp.StatusCode, raw)
		}
		singles[i] = out
	}
	resp, body := postJSON(t, ts.URL+"/query/mesh/batch", MeshBatchRequest{Queries: entries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, body)
	}
	var batch MeshBatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(entries) {
		t.Fatalf("batch returned %d results for %d entries", len(batch.Results), len(entries))
	}
	for i := range entries {
		if !reflect.DeepEqual(batch.Results[i].Neighbors, singles[i].Neighbors) {
			t.Fatalf("entry %d: batch %v != single %v", i, batch.Results[i].Neighbors, singles[i].Neighbors)
		}
		if !batch.Results[i].Cached {
			// The single calls above populated the cache; the batch must
			// answer from it (same keys).
			t.Fatalf("entry %d: batch missed the cache the single call filled", i)
		}
	}
}

// TestQueryMeshMetrics: the mesh endpoints surface their own counters
// and the per-stage latency section.
func TestQueryMeshMetrics(t *testing.T) {
	meshes := testMeshes(8)
	sets := extractAll(t, meshes)
	db := buildMeshDB(t, sets)
	s, ts := newTestServer(t, Config{DB: db})
	body := stlBytes(t, meshes[5])
	for i := 0; i < 2; i++ {
		if resp, _, raw := postMesh(t, ts.URL+"/query/mesh?k=3", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d: %s", i, resp.StatusCode, raw)
		}
	}
	snap := s.MetricsSnapshot()
	ep, ok := snap.Endpoints["query_mesh"]
	if !ok || ep.Count != 2 {
		t.Fatalf("query_mesh endpoint metrics = %+v, want count 2", ep)
	}
	if ep.CacheHits != 1 {
		t.Fatalf("repeat mesh query cache hits = %d, want 1", ep.CacheHits)
	}
	if snap.QueryMeshStages == nil {
		t.Fatal("QueryMeshStages absent after mesh queries")
	}
	for name, st := range map[string]StageLatencySnapshot{
		"parse":    snap.QueryMeshStages.Parse,
		"voxelize": snap.QueryMeshStages.Voxelize,
		"extract":  snap.QueryMeshStages.Extract,
		"search":   snap.QueryMeshStages.Search,
	} {
		n := int64(0)
		for _, b := range st.Latency {
			n += b.Count
		}
		if n != 2 {
			t.Fatalf("stage %s observed %d samples, want 2", name, n)
		}
	}
	// Wrong-dim backend refuses mesh queries with 400.
	db3, _ := buildDB(t, 5)
	_, ts3 := newTestServer(t, Config{DB: db3})
	resp, _, _ := postMesh(t, ts3.URL+"/query/mesh?k=3", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dim-3 backend accepted a mesh query: %d", resp.StatusCode)
	}
}

// TestRefinedPerQueryCountsExecutedQueries: /metrics relates refinements
// to the queries every query endpoint executed — one per single request,
// one per batch entry, cache hits included — and never to a request
// rejected before it ran.
func TestRefinedPerQueryCountsExecutedQueries(t *testing.T) {
	meshes := testMeshes(8)
	sets := extractAll(t, meshes)
	db := buildMeshDB(t, sets)
	s, ts := newTestServer(t, Config{DB: db})
	ok := func(resp *http.Response, raw string) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
	}
	rejected := func(resp *http.Response, raw string) {
		t.Helper()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
		}
	}
	post := func(path string, body interface{}) (*http.Response, string) {
		resp, raw := postJSON(t, ts.URL+path, body)
		return resp, string(raw)
	}
	mesh := func(path string, m int) (*http.Response, string) {
		resp, _, raw := postMesh(t, ts.URL+path, stlBytes(t, meshes[m]))
		return resp, raw
	}
	ok(mesh("/query/mesh?k=3", 5))                 // 1
	ok(mesh("/query/mesh?k=3", 5))                 // 2, a cache hit
	ok(mesh("/query/mesh?eps=2", 1))               // 3
	ok(post("/query/mesh/batch", MeshBatchRequest{ // 4, 5, 6
		Queries: []MeshBatchQuery{{STL: stlBytes(t, meshes[2]), K: 2}, {STL: stlBytes(t, meshes[3]), K: 4}, {STL: stlBytes(t, meshes[4]), K: 1}}}))
	ok(post("/knn", QueryRequest{Set: sets[6], K: 3})) // 7
	ok(post("/knn/batch", BatchRequest{                // 8, 9
		Queries: []QueryRequest{{Set: sets[1], K: 2}, {Set: sets[7], K: 5}}}))
	ok(post("/range", QueryRequest{Set: sets[0], Eps: 1})) // 10
	rejected(mesh("/query/mesh", 5))
	rejected(post("/knn", QueryRequest{Set: sets[6], K: 0}))
	rejected(post("/knn", QueryRequest{Set: [][]float64{{1, 2, 3}}, K: 3}))
	rejected(post("/range", QueryRequest{Set: sets[0], Eps: -1}))
	rejected(post("/knn/batch", BatchRequest{Queries: []QueryRequest{{Set: sets[1], K: 2}, {K: 2}}}))

	snap := s.MetricsSnapshot()
	if snap.Refinements == 0 {
		t.Fatal("no refinements counted")
	}
	if want := float64(snap.Refinements) / 10; snap.RefinedPerQuery != want {
		t.Fatalf("refined_per_query = %v, want %d refinements / 10 executed queries = %v", snap.RefinedPerQuery, snap.Refinements, want)
	}
	if want := snap.RefinedPerQuery / float64(len(sets)); snap.CandidateRatio != want {
		t.Fatalf("candidate_ratio = %v, want %v", snap.CandidateRatio, want)
	}
}

// TestNonFiniteBodiesAreInvalidJSON: NaN, ±Infinity and an out-of-range
// literal such as 1e999 cannot reach the engine through the HTTP API —
// encoding/json refuses to decode them into a float64 — so every write
// and query endpoint answers 400 "invalid JSON" for them, in single and
// cluster mode, and nothing is stored. (The engine's own check,
// vsdb.ErrNonFinite, guards the callers that bypass HTTP.)
func TestNonFiniteBodiesAreInvalidJSON(t *testing.T) {
	sets := extractAll(t, testMeshes(4))
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"single", Config{DB: buildMeshDB(t, sets)}},
		{"cluster", Config{Cluster: buildMeshCluster(t, 3, sets)}},
	} {
		s, ts := newTestServer(t, mode.cfg)
		for _, lit := range []string{"NaN", "Infinity", "-Infinity", "1e999", "-1e999"} {
			vec := fmt.Sprintf("[[%s,0,0,0,0,0]]", lit)
			for path, body := range map[string]string{
				"/insert":    fmt.Sprintf(`{"id": 5000, "set": %s}`, vec),
				"/knn":       fmt.Sprintf(`{"set": %s, "k": 3}`, vec),
				"/range":     fmt.Sprintf(`{"set": %s, "eps": 1}`, vec),
				"/knn/batch": fmt.Sprintf(`{"queries": [{"set": %s, "k": 3}]}`, vec),
			} {
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "invalid JSON") {
					t.Fatalf("%s %s with %s: %d %s, want 400 invalid JSON", mode.name, path, lit, resp.StatusCode, raw)
				}
			}
		}
		if n := s.MetricsSnapshot().Objects; n != len(sets) {
			t.Fatalf("%s: %d objects after the rejected inserts, want %d", mode.name, n, len(sets))
		}
	}
}
