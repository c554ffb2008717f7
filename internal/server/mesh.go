package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/meshquery"
	"github.com/voxset/voxset/internal/vsdb"
)

// coverDim is the dimensionality of cover feature vectors (§3.3): mesh
// queries only make sense against a database storing them.
const coverDim = 6

// Query-by-upload (DESIGN.md §14): POST /query/mesh accepts a raw STL
// body plus URL query parameters and runs the paper's whole pipeline —
// parse, voxelize+normalize, extract the cover vector set, search — in
// one request. The extraction is internal/meshquery (the same code
// offline callers use, which is what makes served answers byte-
// identical to offline extraction + query-by-vector-set), and the
// search stage is the /knn–/range machinery itself (Server.execute):
// same query slots, same timeout, same cache (minimal-matching mesh
// queries share cache entries with /knn queries carrying the same
// extracted set), same strict/partial cluster semantics. Parse and
// extraction run on the request goroutine like JSON decoding does
// elsewhere — they are bounded by MaxMeshBytes and the fixed grid
// resolution — while the search runs on a bounded slot under the
// request timeout.

// MeshStages is the per-stage latency breakdown of one mesh query.
type MeshStages struct {
	ParseMS    float64 `json:"parse_ms"`
	VoxelizeMS float64 `json:"voxelize_ms"`
	ExtractMS  float64 `json:"extract_ms"`
	SearchMS   float64 `json:"search_ms"`
}

// MeshQueryResponse is the body returned by /query/mesh (and one entry
// of /query/mesh/batch). Set is the extracted cover vector set — the
// query actually executed — so a client can replay it against /knn or
// /range verbatim.
type MeshQueryResponse struct {
	Neighbors   []Neighbor        `json:"neighbors"`
	Set         [][]float64       `json:"set"`
	Triangles   int               `json:"triangles"`
	Voxels      int               `json:"voxels"`
	Cached      bool              `json:"cached"`
	ElapsedMS   float64           `json:"elapsed_ms"`
	Stages      MeshStages        `json:"stages"`
	Partial     bool              `json:"partial,omitempty"`
	ShardErrors map[string]string `json:"shard_errors,omitempty"`
}

// MeshBatchQuery is one entry of /query/mesh/batch: a base64-encoded
// STL body plus the same parameters /query/mesh takes in its URL.
type MeshBatchQuery struct {
	STL  []byte   `json:"stl"`
	K    int      `json:"k,omitempty"`
	Eps  *float64 `json:"eps,omitempty"`
	Dist string   `json:"dist,omitempty"`
	I    int      `json:"i,omitempty"`
}

// MeshBatchRequest is the body of /query/mesh/batch.
type MeshBatchRequest struct {
	Queries []MeshBatchQuery `json:"queries"`
}

// MeshBatchResponse is the body returned by /query/mesh/batch.
// Results[i] answers Queries[i] exactly as a /query/mesh call carrying
// that entry would.
type MeshBatchResponse struct {
	Results   []MeshQueryResponse `json:"results"`
	ElapsedMS float64             `json:"elapsed_ms"`
}

// parseMeshParams resolves and validates /query/mesh URL parameters into
// the query they ask for (its Set comes from the extraction).
func (s *Server) parseMeshParams(v url.Values) (vsdb.Query, error) {
	var q vsdb.Query
	kStr, epsStr := v.Get("k"), v.Get("eps")
	switch {
	case kStr != "" && epsStr != "":
		return q, errors.New("give either \"k\" or \"eps\", not both")
	case kStr != "":
		k, err := strconv.Atoi(kStr)
		if err != nil || k <= 0 || k > s.maxK {
			return q, fmt.Errorf("k must be an integer in [1, %d], got %q", s.maxK, kStr)
		}
		q.Kind, q.K = vsdb.KNN, k
	case epsStr != "":
		eps, err := strconv.ParseFloat(epsStr, 64)
		if err != nil || eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
			return q, fmt.Errorf("eps must be a finite value ≥ 0, got %q", epsStr)
		}
		q.Kind, q.Eps = vsdb.Range, eps
	default:
		return q, errors.New("give \"k\" (k-nn) or \"eps\" (range)")
	}
	switch d := v.Get("dist"); d {
	case "", "minimal":
	case "partial":
		q.Match.Partial = true
	default:
		return q, fmt.Errorf("dist must be \"minimal\" or \"partial\", got %q", d)
	}
	if iStr := v.Get("i"); iStr != "" {
		if !q.Match.Partial {
			return q, errors.New("\"i\" requires dist=partial")
		}
		i, err := strconv.Atoi(iStr)
		if err != nil || i < 0 {
			return q, fmt.Errorf("i must be an integer ≥ 0, got %q", iStr)
		}
		q.Match.I = i
	}
	return q, nil
}

// meshExtractConfig resolves the extraction parameters against the
// published backend.
func (s *Server) meshExtractConfig() (meshquery.Config, error) {
	if s.db.Dim() != coverDim {
		return meshquery.Config{}, fmt.Errorf("mesh queries need a %d-d cover-feature backend, this one stores dim %d", coverDim, s.db.Dim())
	}
	cfg := s.meshCfg
	if cfg.RCover <= 0 {
		cfg.RCover = meshquery.DefaultConfig().RCover
	}
	if cfg.Covers <= 0 {
		cfg.Covers = s.db.MaxCard()
	}
	if cfg.Covers > s.db.MaxCard() {
		return meshquery.Config{}, fmt.Errorf("extraction cover budget %d exceeds database MaxCard %d", cfg.Covers, s.db.MaxCard())
	}
	return cfg, nil
}

// meshExtraction is one mesh query's pipeline state up to (and
// excluding) the search.
type meshExtraction struct {
	set       [][]float64
	triangles int
	voxels    int
	stages    MeshStages
}

// meshBodies pools /query/mesh body buffers (*[]byte). A body is
// voxelized in place, and nothing of it outlives its extraction.
var meshBodies sync.Pool

// readMeshBody reads a /query/mesh body, at most maxMeshBytes of it, into
// a pooled buffer: sized once to a declared Content-Length (net/http's
// body reader ends there), grown as it arrives otherwise (a chunked
// upload). The caller puts the buffer back in meshBodies once the body is
// extracted; a failed read drops it, so a body cut off at the cap does not
// leave a buffer of that size in the pool.
func (s *Server) readMeshBody(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	bp, _ := meshBodies.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	body := http.MaxBytesReader(w, r.Body, s.maxMeshBytes)
	if n := r.ContentLength; n > 0 && n <= s.maxMeshBytes {
		if int64(cap(*bp)) < n {
			*bp = make([]byte, n)
		}
		*bp = (*bp)[:n]
		_, err := io.ReadFull(body, *bp)
		return bp, err
	}
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(body)
	*bp = buf.Bytes()
	return bp, err
}

// extractMesh reads the STL bytes in place (mesh.ViewSTL) and runs
// voxelize + extract, timing each stage. Errors are client errors (400).
func (s *Server) extractMesh(data []byte, cfg meshquery.Config) (meshExtraction, error) {
	var ex meshExtraction
	t := time.Now()
	m, err := mesh.ViewSTL(data)
	ex.stages.ParseMS = msSince(t)
	if err != nil {
		return ex, fmt.Errorf("invalid STL: %v", err)
	}
	ex.triangles = m.Len()
	t = time.Now()
	g, err := meshquery.Voxelize(m, cfg)
	ex.stages.VoxelizeMS = msSince(t)
	if err != nil {
		return ex, err
	}
	ex.voxels = g.Count()
	t = time.Now()
	ex.set = meshquery.CoverSet(g, cfg.Covers)
	ex.stages.ExtractMS = msSince(t)
	if len(ex.set) == 0 {
		return ex, meshquery.ErrDegenerate
	}
	return ex, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

func (s *Server) handleQueryMesh(w http.ResponseWriter, r *http.Request) {
	m := &s.meshM
	m.count.Add(1)
	start := time.Now()
	q, err := s.parseMeshParams(r.URL.Query())
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	cfg, err := s.meshExtractConfig()
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	body, err := s.readMeshBody(w, r)
	if err != nil {
		m.errors.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: fmt.Sprintf("mesh body exceeds %d bytes", s.maxMeshBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "reading body: " + err.Error()})
		return
	}
	ex, err := s.extractMesh(*body, cfg)
	meshBodies.Put(body) // nothing extracted aliases the body
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	q.Set = ex.set
	t := time.Now()
	out, ok := s.execute(w, r, m, start, []vsdb.Query{q})
	if !ok {
		return
	}
	if !out[0].Cached {
		ex.stages.SearchMS = msSince(t)
	}
	resp := meshResponse(ex, out[0])
	resp.ElapsedMS = msSince(start)
	s.meshStages.observe(ex.stages)
	m.latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// meshResponse wraps one executed query's answer with the pipeline
// metadata of the mesh it was extracted from.
func meshResponse(ex meshExtraction, qr QueryResponse) MeshQueryResponse {
	return MeshQueryResponse{
		Neighbors:   qr.Neighbors,
		Set:         ex.set,
		Triangles:   ex.triangles,
		Voxels:      ex.voxels,
		Cached:      qr.Cached,
		Stages:      ex.stages,
		Partial:     qr.Partial,
		ShardErrors: qr.ShardErrors,
	}
}

// batchMeshParams mirrors parseMeshParams for one batch entry.
func (s *Server) batchMeshParams(q *MeshBatchQuery) (vsdb.Query, error) {
	v := url.Values{}
	if q.K != 0 {
		v.Set("k", strconv.Itoa(q.K))
	}
	if q.Eps != nil {
		v.Set("eps", strconv.FormatFloat(*q.Eps, 'g', -1, 64))
	}
	if q.Dist != "" {
		v.Set("dist", q.Dist)
	}
	if q.I != 0 {
		v.Set("i", strconv.Itoa(q.I))
	}
	return s.parseMeshParams(v)
}

// handleQueryMeshBatch answers N mesh queries in one request. Every
// entry is validated, parsed and extracted up front (a bad entry fails
// the batch with its index); the extracted queries then execute exactly
// like a /knn/batch: cached entries answer immediately, the misses run as
// one Search on ONE query slot under ONE request timeout.
func (s *Server) handleQueryMeshBatch(w http.ResponseWriter, r *http.Request) {
	m := &s.meshBatchM
	m.count.Add(1)
	start := time.Now()
	var req MeshBatchRequest
	if !s.decodeBody(w, r, m, &req, false) {
		return
	}
	n := len(req.Queries)
	if n == 0 {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch"})
		return
	}
	if n > maxBatchSize {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("batch size %d exceeds limit %d", n, maxBatchSize)})
		return
	}
	cfg, err := s.meshExtractConfig()
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	qs := make([]vsdb.Query, n)
	exs := make([]meshExtraction, n)
	for i := range req.Queries {
		q := &req.Queries[i]
		if int64(len(q.STL)) > s.maxMeshBytes {
			m.errors.Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: fmt.Sprintf("query %d: mesh exceeds %d bytes", i, s.maxMeshBytes)})
			return
		}
		if qs[i], err = s.batchMeshParams(q); err == nil {
			exs[i], err = s.extractMesh(q.STL, cfg)
		}
		if err != nil {
			m.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("query %d: %v", i, err)})
			return
		}
		qs[i].Set = exs[i].set
	}

	t := time.Now()
	out, ok := s.execute(w, r, m, start, qs)
	if !ok {
		return
	}
	// The misses shared one Search; each reports an equal share of its
	// wall time as its search stage, so the stage histogram's sum still
	// is the time spent searching.
	misses := 0
	for i := range out {
		if !out[i].Cached {
			misses++
		}
	}
	searchMS := msSince(t) / float64(max(misses, 1))
	results := make([]MeshQueryResponse, n)
	for i := range out {
		if !out[i].Cached {
			exs[i].stages.SearchMS = searchMS
		}
		results[i] = meshResponse(exs[i], out[i])
		results[i].ElapsedMS = msSince(start)
		s.meshStages.observe(exs[i].stages)
	}
	m.latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, MeshBatchResponse{Results: results, ElapsedMS: msSince(start)})
}
