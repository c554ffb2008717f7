package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// updateTranscript regenerates testdata/transcript.golden. The golden is
// the behaviour a smaller design is judged against (ROADMAP aim 2):
// regenerate it only in a change that means to alter what the HTTP
// surface answers, never in a refactor.
var updateTranscript = flag.Bool("update", false, "rewrite testdata/transcript.golden from the current server")

// Volatile response content: every *_ms value is a wall-clock timing,
// latency histograms bucket those timings, and uptime/workers depend on
// the host. Everything else in a body must reproduce byte for byte.
var (
	transcriptMS        = regexp.MustCompile(`"([a-z0-9_]*_ms)":-?[0-9.]+(e[-+]?[0-9]+)?`)
	transcriptHistogram = regexp.MustCompile(`"latency_histogram":\[[^\]]*\]`)
	transcriptHost      = regexp.MustCompile(`"(uptime_seconds|workers)":-?[0-9.]+(e[-+]?[0-9]+)?`)
)

func scrubTranscript(body []byte) string {
	body = transcriptMS.ReplaceAll(body, []byte(`"$1":0`))
	body = transcriptHistogram.ReplaceAll(body, []byte(`"latency_histogram":[]`))
	body = transcriptHost.ReplaceAll(body, []byte(`"$1":0`))
	return strings.TrimSpace(string(body))
}

// transcriptCorpus is the fixed object set every mode serves: ten
// extracted meshes (ids 0-9, so mesh uploads have true matches) plus 150
// seeded random 6-d cover-like sets (ids 100-249).
func transcriptCorpus(t *testing.T) (ids []uint64, sets [][][]float64) {
	t.Helper()
	for i, set := range extractAll(t, testMeshes(10)) {
		ids, sets = append(ids, uint64(i)), append(sets, set)
	}
	rng := rand.New(rand.NewSource(20260926))
	for i := 0; i < 150; i++ {
		set := make([][]float64, 1+rng.Intn(7))
		for j := range set {
			set[j] = make([]float64, 6)
			for d := range set[j] {
				set[j][d] = 4 * rng.NormFloat64()
			}
		}
		ids, sets = append(ids, uint64(100+i)), append(sets, set)
	}
	return ids, sets
}

// jitter returns a perturbed copy of set, so by-set queries are near —
// not equal to — a stored object.
func jitter(rng *rand.Rand, set [][]float64) [][]float64 {
	out := make([][]float64, len(set))
	for i, v := range set {
		out[i] = make([]float64, len(v))
		for j, x := range v {
			out[i][j] = x + 0.05*rng.NormFloat64()
		}
	}
	return out
}

// TestHTTPTranscript replays one fixed request script — every query
// endpoint in every mode it takes, interleaved with mutations, a
// compaction, cache hits and the malformed-request rows — against a
// single database and a 3-shard cluster, and compares status + body
// (timings zeroed) with the committed golden.
func TestHTTPTranscript(t *testing.T) {
	ids, sets := transcriptCorpus(t)
	meshes := testMeshes(10)
	var got strings.Builder
	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"single/exact", 0},
		{"3-shard/exact", 3},
	} {
		var cfg Config
		if mode.shards == 0 {
			db, err := vsdb.Open(vsdb.Config{Dim: 6, MaxCard: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.BulkInsert(ids, sets); err != nil {
				t.Fatal(err)
			}
			cfg.DB = db
		} else {
			c, err := cluster.New(cluster.Config{Shards: mode.shards, Dim: 6, MaxCard: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.BulkInsert(ids, sets); err != nil {
				t.Fatal(err)
			}
			cfg.Cluster = c
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s ==\n", mode.name)
		runTranscript(t, &got, s.Handler(), sets, func(i int) []byte { return stlBytes(t, meshes[i]) })
	}

	golden := filepath.Join("testdata", "transcript.golden")
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("transcript diverges from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}

// runTranscript drives the request script against h, appending one
// "label / status body" pair per request to out. sets is the corpus in
// id order (sets[i] is mesh i's offline extraction for i < 10).
func runTranscript(t *testing.T, out *strings.Builder, h http.Handler, sets [][][]float64, stl func(i int) []byte) {
	t.Helper()
	n := 0
	do := func(label, method, path string, body []byte) {
		n++
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		fmt.Fprintf(out, "#%02d %s %s %s\n%d %s\n", n, method, path, label, rec.Code, scrubTranscript(rec.Body.Bytes()))
	}
	post := func(label, path string, body interface{}) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		do(label, http.MethodPost, path, raw)
	}
	raw := func(label, path, body string) { do(label, http.MethodPost, path, []byte(body)) }
	get := func(label, path string) { do(label, http.MethodGet, path, nil) }
	id := func(v uint64) *uint64 { return &v }
	f := func(v float64) *float64 { return &v }

	rng := rand.New(rand.NewSource(7))
	q0, q1, q2 := jitter(rng, sets[20]), jitter(rng, sets[77]), jitter(rng, sets[4])
	extra := jitter(rng, sets[31])

	// A body field the server does not read — "approx", which once chose
	// an approximate tier — is ignored: the query is the exact one.
	withApprox, err := json.Marshal(struct {
		QueryRequest
		Approx bool `json:"approx"`
	}{QueryRequest{Set: q0, K: 5}, true})
	if err != nil {
		t.Fatal(err)
	}

	// k-nn and ε-range, by set and by id.
	post("q0 k=5", "/knn", QueryRequest{Set: q0, K: 5})
	post("q0 k=5 again (cache hit)", "/knn", QueryRequest{Set: q0, K: 5})
	post("id=103 k=7", "/knn", QueryRequest{ID: id(103), K: 7})
	do(`q0 k=5 "approx": true (ignored: cache hit)`, http.MethodPost, "/knn", withApprox)
	post("q0 k=5 once more (cache hit)", "/knn", QueryRequest{Set: q0, K: 5})
	post("q1 k=200 (beyond corpus)", "/knn", QueryRequest{Set: q1, K: 200})
	post("q1 eps=42", "/range", QueryRequest{Set: q1, Eps: 42})
	post("id=4 eps=6", "/range", QueryRequest{ID: id(4), Eps: 6})
	post("q1 eps=42 again (cache hit)", "/range", QueryRequest{Set: q1, Eps: 42})
	post("q1 eps=42 once more (cache hit)", "/range", QueryRequest{Set: q1, Eps: 42})
	post("q2 eps=0 (empty)", "/range", QueryRequest{Set: q2, Eps: 0})

	// One batch mixing k, by-id entries, repeated entries and a cached
	// entry.
	mixed := BatchRequest{Queries: []QueryRequest{
		{Set: q0, K: 5}, // cached by the single query above
		{Set: q1, K: 3},
		{Set: q2, K: 10},
		{ID: id(150), K: 3},
		{Set: q1, K: 3},
		{ID: id(7), K: 1},
		{Set: q2, K: 10},
	}}
	post("mixed k, repeated entries", "/knn/batch", mixed)
	post("same batch again (all cached)", "/knn/batch", mixed)
	post("q1 k=3 after batch (cache hit)", "/knn", QueryRequest{Set: q1, K: 3})

	// Query by upload, minimal and partial matching, single and batch.
	do("mesh3 k=4", http.MethodPost, "/query/mesh?k=4", stl(3))
	do("mesh3 k=4 dist=minimal (cache hit)", http.MethodPost, "/query/mesh?k=4&dist=minimal", stl(3))
	post("mesh3's extracted set k=4 (shares the mesh entry)", "/knn", QueryRequest{Set: sets[3], K: 4})
	do("mesh3 k=4 partial i=3", http.MethodPost, "/query/mesh?k=4&dist=partial&i=3", stl(3))
	do("mesh3 k=4 partial auto", http.MethodPost, "/query/mesh?k=4&dist=partial", stl(3))
	do("mesh6 eps=3", http.MethodPost, "/query/mesh?eps=3", stl(6))
	do("mesh6 eps=1.5 partial i=2", http.MethodPost, "/query/mesh?eps=1.5&dist=partial&i=2", stl(6))
	do("mesh5 k=6", http.MethodPost, "/query/mesh?k=6", stl(5))
	do("mesh5 k=6 again (cache hit)", http.MethodPost, "/query/mesh?k=6", stl(5))
	meshBatch := MeshBatchRequest{Queries: []MeshBatchQuery{
		{STL: stl(3), K: 4}, // cached by the single upload above
		{STL: stl(8), K: 3, Dist: "partial", I: 2},
		{STL: stl(1), Eps: f(2.5)},
		{STL: stl(8), K: 6},
		{STL: stl(2), K: 2},
		{STL: stl(1), Eps: f(1), Dist: "partial"},
	}}
	post("mixed kinds and distances", "/query/mesh/batch", meshBatch)

	// Mutations: every insert/delete advances the epoch (so cached answers
	// stop being served), reads see delta and tombstones, /compact folds
	// them without invalidating the cache.
	post("id=900", "/insert", MutateRequest{ID: 900, Set: extra})
	post("id=900 again (conflict)", "/insert", MutateRequest{ID: 900, Set: extra})
	post("q0 k=5 after insert (miss)", "/knn", QueryRequest{Set: q0, K: 5})
	post("id=900 k=4 (delta hit)", "/knn", QueryRequest{ID: id(900), K: 4})
	post("id=103", "/delete", MutateRequest{ID: 103})
	post("id=103 again (missing)", "/delete", MutateRequest{ID: 103})
	post("id=3", "/delete", MutateRequest{ID: 3})
	post("id=103 k=7 (now missing)", "/knn", QueryRequest{ID: id(103), K: 7})
	post("id=901", "/insert", MutateRequest{ID: 901, Set: jitter(rng, sets[3])})
	post("mixed batch over delta + tombstones", "/knn/batch", mixed)
	post("q1 eps=42 over delta + tombstones", "/range", QueryRequest{Set: q1, Eps: 42})
	do("mesh3 k=4 over delta + tombstones", http.MethodPost, "/query/mesh?k=4", stl(3))
	do("mesh3 k=4 partial i=3 over delta + tombstones", http.MethodPost, "/query/mesh?k=4&dist=partial&i=3", stl(3))
	post("mesh batch over delta + tombstones", "/query/mesh/batch", meshBatch)
	raw("", "/compact", "{}")
	post("q1 eps=42 after compact (cache hit)", "/range", QueryRequest{Set: q1, Eps: 42})
	post("q1 eps=43 after compact (miss)", "/range", QueryRequest{Set: q1, Eps: 43})
	post("id=901 k=5 after compact", "/knn", QueryRequest{ID: id(901), K: 5})
	raw("empty body", "/compact", "")
	get("", "/object/900")
	get("(deleted)", "/object/103")

	// Malformed requests: clean 4xx, same text in every mode.
	raw("truncated JSON", "/knn", `{"set": [[1,2`)
	raw("set and id", "/knn", `{"set": [[0,0,0,0,0,0]], "id": 1, "k": 3}`)
	raw("neither set nor id", "/knn", `{"k": 3}`)
	raw("wrong dim", "/knn", `{"set": [[1,2,3]], "k": 3}`)
	raw("cardinality 8", "/knn", `{"set": [[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0]], "k": 3}`)
	raw("k=0", "/knn", `{"id": 1, "k": 0}`)
	raw("k=1001", "/knn", `{"id": 1, "k": 1001}`)
	raw("eps<0", "/range", `{"id": 1, "eps": -1}`)
	raw("unknown id", "/range", `{"id": 99999, "eps": 1}`)
	raw("empty batch", "/knn/batch", `{"queries": []}`)
	raw("bad entry 1", "/knn/batch", `{"queries": [{"id": 1, "k": 3}, {"id": 1, "k": 0}]}`)
	raw("not JSON", "/knn/batch", `nope`)
	do("no k or eps", http.MethodPost, "/query/mesh", stl(0))
	do("k and eps", http.MethodPost, "/query/mesh?k=3&eps=1", stl(0))
	do("dist=bogus", http.MethodPost, "/query/mesh?k=3&dist=bogus", stl(0))
	do("i without partial", http.MethodPost, "/query/mesh?k=3&i=2", stl(0))
	do("k not a number", http.MethodPost, "/query/mesh?k=abc", stl(0))
	do("negative i", http.MethodPost, "/query/mesh?k=3&dist=partial&i=-1", stl(0))
	do("garbage STL", http.MethodPost, "/query/mesh?k=3", []byte("solid nothing here"))
	do("empty body", http.MethodPost, "/query/mesh?k=3", nil)
	raw("empty batch", "/query/mesh/batch", `{"queries": []}`)
	post("bad entry 1", "/query/mesh/batch", MeshBatchRequest{Queries: []MeshBatchQuery{{STL: stl(0), K: 3}, {STL: stl(0)}}})
	raw("wrong dim", "/insert", `{"id": 5000, "set": [[1,2,3]]}`)
	raw("empty set", "/insert", `{"id": 5000}`)
	raw("truncated JSON", "/delete", `{"id": `)
	raw("malformed body", "/compact", `{oops`)
	get("non-numeric id", "/object/abc")

	// Serving state after the script: shard topology and every counter.
	get("", "/cluster")
	get("", "/metrics")
}
