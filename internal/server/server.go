// Package server exposes a vsdb vector set database — or a sharded
// cluster of them — as a concurrent HTTP/JSON query service (DESIGN.md
// §7, §9) — the long-lived serving half of the paper's filter/refinement
// pipeline. Endpoints:
//
//	POST /knn      {"set": [[...],...], "k": 10}   k-nn under dist_mm
//	POST /knn/batch {"queries": [{"set": ..., "k": 10}, ...]}
//	                                                N k-nn queries in one
//	                                                round trip, answered
//	                                                against one database
//	                                                epoch; entry i equals
//	                                                a /knn call with
//	                                                queries[i]
//	POST /range    {"set": [[...],...], "eps": 1.5} ε-range under dist_mm
//	POST /query/mesh?k=10                           query by upload: a raw
//	                                                STL body is voxelized,
//	                                                normalized and reduced
//	                                                to its cover vector
//	                                                set, then searched.
//	                                                Params: k or eps,
//	                                                dist=minimal|partial,
//	                                                i (partial matching
//	                                                size)
//	POST /query/mesh/batch {"queries": [...]}       N mesh queries in one
//	                                                round trip (STL bodies
//	                                                base64-encoded)
//	POST /insert   {"id": 7, "set": [[...],...]}    store an object
//	POST /delete   {"id": 7}                        remove an object
//	POST /compact  {}                               fold delta + tombstones
//	GET  /object/{id}                               stored vector set
//	GET  /healthz                                   liveness + readiness:
//	                                                503 "warming" until the
//	                                                backend is published,
//	                                                then 200 + object count
//	GET  /cluster                                   shard topology + status
//	GET  /metrics                                   counters, latency
//	                                                histogram, filter
//	                                                selectivity, simulated
//	                                                page I/O, live-update
//	                                                and per-shard gauges
//
// Query bodies may give "id" instead of "set" to query by a stored
// object. Every request runs on its handler goroutine: a query takes one
// of a bounded number of slots (the slot count is resolved through
// parallel.Workers), runs inline under the per-request deadline carried
// as a context.Context down to the refinement loops, and gives the slot
// back when it returns — a request that times out frees its slot with
// its 503. An LRU cache short-circuits repeated query objects.
// Mutations go straight to the database (vsdb serializes writers
// internally and queries are lock-free against immutable views, DESIGN.md
// §8); cache keys carry the database epoch, so a mutation implicitly
// invalidates every cached result. All handlers are safe for arbitrary
// client concurrency and for graceful shutdown mid-flight.
//
// In every mode the routes serve a cluster coordinator: a single
// database is a 1-shard cluster (cluster.Single). Queries open the shards
// in turn; an unavailable shard (down, timed out, failing) maps to 502 in
// strict mode, a partial-mode degraded result carries "partial" and
// per-shard error detail in the response body (and is never cached),
// /cluster reports the shard topology, and /metrics carries per-shard
// latency/error/epoch gauges.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/meshquery"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vsdb"
)

// Config parameterizes a Server.
type Config struct {
	// DB is the single database to serve, as a 1-shard cluster
	// (cluster.Single). Exactly one of DB and Cluster is required. The
	// server mutates it only through /insert, /delete and /compact, and
	// never closes it; vsdb itself is safe for concurrent mutation and
	// serving, so sharing it with other writers is allowed (their
	// mutations advance the epoch and invalidate the query cache just
	// the same).
	DB *vsdb.DB
	// Cluster is the sharded cluster to coordinate. Exactly one of DB
	// and Cluster is required.
	Cluster *cluster.DB
	// Tracker, if non-nil, feeds the /metrics simulated-I/O section. Pass
	// the tracker the database charges (vsdb.Config.Tracker /
	// vsdb.LoadOptions.Tracker) so query-time page reads are visible.
	Tracker *storage.Tracker
	// Workers is the number of query slots: queries executing at once,
	// each on its handler goroutine. 0 consults VOXSET_WORKERS and
	// defaults to one slot per CPU.
	Workers int
	// Timeout is the per-request budget (default 10s), covering the wait
	// for a slot and the search itself. Requests that miss it get 503,
	// free their slot, and count as timeouts in /metrics.
	Timeout time.Duration
	// CacheSize is the LRU query-cache capacity in entries (default 256;
	// negative disables caching).
	CacheSize int
	// MaxK caps the k accepted by /knn (default 1000).
	MaxK int
	// MaxMeshBytes caps the raw STL body accepted by /query/mesh
	// (default 8 MiB). Oversized uploads get 413.
	MaxMeshBytes int64
	// MaxBodyBytes caps every JSON request body — /knn, /range,
	// /knn/batch, /query/mesh/batch, /insert, /delete and /compact
	// (default 32 MiB). Oversized bodies get 413.
	MaxBodyBytes int64
	// MeshExtract parameterizes the mesh → vector-set extraction behind
	// /query/mesh. Zero fields default to RCover 15 and Covers =
	// backend MaxCard, matching the standard dataset-build pipeline.
	MeshExtract meshquery.Config
}

// Server serves a vsdb database or cluster over HTTP. Create with New,
// or with NewWarming + Publish to start listening before the backend
// has finished opening.
type Server struct {
	// ready flips once the backend fields below are populated — by New,
	// or later by Publish. Handlers (other than /healthz) run only after
	// observing ready, which orders their reads after Publish's writes.
	ready   atomic.Bool
	db      *cluster.DB
	tracker *storage.Tracker
	timeout time.Duration
	maxK    int
	sem     chan struct{}
	cache   *queryCache
	start   time.Time

	maxMeshBytes int64            // raw STL body cap (Config.MaxMeshBytes)
	maxBodyBytes int64            // JSON body cap (Config.MaxBodyBytes)
	meshCfg      meshquery.Config // /query/mesh extraction parameters

	knnM       endpointMetrics
	batchM     endpointMetrics
	rangeM     endpointMetrics
	objectM    endpointMetrics
	insertM    endpointMetrics
	deleteM    endpointMetrics
	compactM   endpointMetrics
	meshM      endpointMetrics
	meshBatchM endpointMetrics

	meshStages meshStageMetrics // /query/mesh per-stage latency

	batchSizes   sizeHistogram // /knn/batch batch-size distribution
	batchQueries atomic.Int64  // total /knn/batch entries served
	queries      atomic.Int64  // queries executed by every query endpoint, cache hits included
}

// New validates the configuration and returns a ready Server.
func New(cfg Config) (*Server, error) {
	s, err := NewWarming(Config{
		Workers:      cfg.Workers,
		Timeout:      cfg.Timeout,
		CacheSize:    cfg.CacheSize,
		MaxK:         cfg.MaxK,
		MaxMeshBytes: cfg.MaxMeshBytes,
		MaxBodyBytes: cfg.MaxBodyBytes,
		MeshExtract:  cfg.MeshExtract,
	})
	if err != nil {
		return nil, err
	}
	if err := s.Publish(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// NewWarming returns a server with no backend yet: it can accept
// connections immediately, but every endpoint except GET /healthz
// answers 503 until Publish installs the opened database — so a slow
// snapshot open or WAL replay delays readiness, not liveness. Config.DB
// and Config.Cluster must be nil here; they go to Publish.
func NewWarming(cfg Config) (*Server, error) {
	if cfg.DB != nil || cfg.Cluster != nil {
		return nil, errors.New("server: NewWarming takes no backend; pass it to Publish")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1000
	}
	if cfg.MaxMeshBytes <= 0 {
		cfg.MaxMeshBytes = 8 << 20
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	workers := parallel.Workers(cfg.Workers, parallel.Auto())
	return &Server{
		timeout:      cfg.Timeout,
		maxK:         cfg.MaxK,
		sem:          make(chan struct{}, workers),
		cache:        newQueryCache(cfg.CacheSize),
		start:        time.Now(),
		maxMeshBytes: cfg.MaxMeshBytes,
		maxBodyBytes: cfg.MaxBodyBytes,
		meshCfg:      cfg.MeshExtract,
	}, nil
}

// Publish installs the backend — exactly one of cfg.DB (served as
// cluster.Single) and cfg.Cluster, plus cfg.Tracker for /metrics — and
// flips the server ready. Call it once, from one goroutine, after the
// database has opened; from then on /healthz reports "ok" and the data
// endpoints serve.
func (s *Server) Publish(cfg Config) error {
	if (cfg.DB == nil) == (cfg.Cluster == nil) {
		return errors.New("server: exactly one of Config.DB and Config.Cluster is required")
	}
	if s.ready.Load() {
		return errors.New("server: a backend is already published")
	}
	s.db = cfg.Cluster
	if cfg.DB != nil {
		s.db = cluster.Single(cfg.DB)
	}
	s.tracker = cfg.Tracker
	s.ready.Store(true)
	return nil
}

// Ready reports whether a backend has been published.
func (s *Server) Ready() bool { return s.ready.Load() }

// Workers returns the resolved query-slot count.
func (s *Server) Workers() int { return cap(s.sem) }

// ---------------------------------------------------------------------------
// Wire types

// QueryRequest is the body of /knn and /range. Exactly one of Set and ID
// must be given.
type QueryRequest struct {
	Set [][]float64 `json:"set,omitempty"`
	ID  *uint64     `json:"id,omitempty"`
	K   int         `json:"k,omitempty"`
	Eps float64     `json:"eps,omitempty"`
}

// Neighbor is one result row.
type Neighbor struct {
	ID   uint64  `json:"id"`
	Dist float64 `json:"dist"`
}

// QueryResponse is the body returned by /knn and /range. Partial and
// ShardErrors appear only for degraded cluster queries (partial mode
// with at least one shard failed).
type QueryResponse struct {
	Neighbors   []Neighbor        `json:"neighbors"`
	Cached      bool              `json:"cached"`
	ElapsedMS   float64           `json:"elapsed_ms"`
	Partial     bool              `json:"partial,omitempty"`
	ShardErrors map[string]string `json:"shard_errors,omitempty"`
}

// ObjectResponse is the body returned by /object/{id}.
type ObjectResponse struct {
	ID  uint64      `json:"id"`
	Set [][]float64 `json:"set"`
}

// HealthResponse is the body returned by /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Objects int    `json:"objects"`
}

// ClusterResponse is the body returned by /cluster (a single database is
// one strict shard).
// With replication enabled, Replicas is the follower count per shard and
// each ShardStatus carries its replica set's term and member topology.
type ClusterResponse struct {
	Shards   int                   `json:"shards"`
	Replicas int                   `json:"replicas,omitempty"`
	Mode     string                `json:"mode"` // "strict" or "partial"
	Objects  int                   `json:"objects"`
	Epoch    uint64                `json:"epoch"`
	Status   []cluster.ShardStatus `json:"status"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Handlers

// Handler returns the route mux. It is what tests mount on httptest and
// what ListenAndServe wraps.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /knn", s.handleKNN)
	mux.HandleFunc("POST /knn/batch", s.handleKNNBatch)
	mux.HandleFunc("POST /range", s.handleRange)
	mux.HandleFunc("POST /query/mesh", s.handleQueryMesh)
	mux.HandleFunc("POST /query/mesh/batch", s.handleQueryMeshBatch)
	mux.HandleFunc("POST /insert", s.handleInsert)
	mux.HandleFunc("POST /delete", s.handleDelete)
	mux.HandleFunc("POST /compact", s.handleCompact)
	mux.HandleFunc("GET /object/{id}", s.handleObject)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /cluster", s.handleCluster)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Readiness gate: while warming, only /healthz answers (with 503 +
	// "warming" — liveness without readiness); everything else would
	// touch the not-yet-published backend.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() && r.URL.Path != "/healthz" {
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "warming: snapshot open or WAL replay in progress"})
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// decodeBody decodes a JSON request body into v, reading at most
// maxBodyBytes of it: every body is attacker-sized, and a streaming
// decoder would otherwise read an unbounded one. An empty body is
// accepted only when emptyOK. On failure it counts the error in m,
// answers 413 for an oversized body and 400 for anything else, and
// returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, m *endpointMetrics, v any, emptyOK bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBodyBytes)).Decode(v)
	if err == nil || (emptyOK && err == io.EOF) {
		return true
	}
	m.errors.Add(1)
	code, msg := http.StatusBadRequest, "invalid JSON: "+err.Error()
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		code, msg = http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", s.maxBodyBytes)
	}
	writeJSON(w, code, errorResponse{Error: msg})
	return false
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, &s.knnM, vsdb.KNN)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, &s.rangeM, vsdb.Range)
}

// handleQuery is the shared /knn + /range path: decode, validate, then
// execute a batch of one.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, m *endpointMetrics, kind vsdb.Kind) {
	m.count.Add(1)
	start := time.Now()
	var req QueryRequest
	if !s.decodeBody(w, r, m, &req, false) {
		return
	}
	q, err := s.resolveQuery(&req, kind)
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	out, ok := s.execute(w, r, m, start, []vsdb.Query{q})
	if !ok {
		return
	}
	m.latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, out[0])
}

// execute is the one path every query endpoint answers through, whatever
// it decoded its queries from: each entry is probed against the query
// cache, the misses run as ONE backend Search on ONE query slot under ONE
// request deadline, and complete answers fill the cache. Singles are
// batches of one. On failure it has written the error response (503 for a
// missed deadline, errCode's status otherwise) and counted it in m, and
// returns false.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, m *endpointMetrics, start time.Time, qs []vsdb.Query) ([]QueryResponse, bool) {
	s.queries.Add(int64(len(qs)))
	epoch := s.db.Epoch()
	out := make([]QueryResponse, len(qs))
	keys := make([]uint64, len(qs))
	var misses []vsdb.Query
	for i := range qs {
		keys[i] = cacheKey(epoch, &qs[i])
		if res, ok := s.cache.get(keys[i]); ok {
			m.cacheHits.Add(1)
			out[i] = QueryResponse{Neighbors: res, Cached: true, ElapsedMS: msSince(start)}
			continue
		}
		misses = append(misses, qs[i])
	}
	if len(misses) == 0 {
		return out, true
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	res, err := s.search(ctx, misses)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			m.timeouts.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "query timed out or server shutting down"})
			return nil, false
		}
		m.errors.Add(1)
		writeJSON(w, errCode(err), errorResponse{Error: err.Error()})
		return nil, false
	}
	j := 0 // res[j] answers the j-th miss
	for i := range out {
		if out[i].Cached {
			continue
		}
		out[i] = s.queryResponse(res[j], keys[i])
		out[i].ElapsedMS = msSince(start)
		j++
	}
	return out, true
}

// queryResponse turns one backend result into its response body, caching
// the neighbors under key when the answer is complete. A degraded partial
// answer is not the answer: it carries the per-shard errors and is never
// cached.
func (s *Server) queryResponse(res cluster.Result, key uint64) QueryResponse {
	out := make([]Neighbor, len(res.Neighbors))
	for i, nb := range res.Neighbors {
		out[i] = Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	resp := QueryResponse{Neighbors: out, Partial: res.Partial}
	if res.Partial {
		resp.ShardErrors = make(map[string]string, len(res.Errors))
		for shard, serr := range res.Errors {
			resp.ShardErrors[strconv.Itoa(shard)] = serr.Error()
		}
	} else {
		s.cache.put(key, out)
	}
	return resp
}

// resolveQuery validates one /knn, /range or /knn/batch entry and turns
// it into the query it asks for: the set inline or fetched by stored id,
// k or eps by kind.
func (s *Server) resolveQuery(req *QueryRequest, kind vsdb.Kind) (vsdb.Query, error) {
	set, err := s.resolveQuerySet(req)
	if err != nil {
		return vsdb.Query{}, err
	}
	q := vsdb.Query{Set: set, Kind: kind}
	if kind == vsdb.KNN {
		if req.K <= 0 || req.K > s.maxK {
			return q, fmt.Errorf("k must be in [1, %d], got %d", s.maxK, req.K)
		}
		q.K = req.K
		return q, nil
	}
	if req.Eps < 0 || math.IsNaN(req.Eps) || math.IsInf(req.Eps, 0) {
		return q, fmt.Errorf("eps must be a finite value ≥ 0, got %v", req.Eps)
	}
	q.Eps = req.Eps
	return q, nil
}

// resolveQuerySet returns the query vector set, either inline or fetched
// by stored id.
func (s *Server) resolveQuerySet(req *QueryRequest) ([][]float64, error) {
	switch {
	case req.ID != nil && req.Set != nil:
		return nil, errors.New("give either \"set\" or \"id\", not both")
	case req.ID != nil:
		set := s.db.Get(*req.ID)
		if set == nil {
			return nil, fmt.Errorf("object %d not found", *req.ID)
		}
		return set, nil
	}
	if err := vsdb.CheckSet(req.Set, s.db.Dim(), s.db.MaxCard(), true); err != nil {
		return nil, err
	}
	return req.Set, nil
}

// search runs qs on the caller's goroutine while it holds a query slot:
// it waits for a slot under ctx, searches under ctx, and gives the slot
// back when the search returns — at the deadline at the latest, since the
// engine checks ctx as it goes.
func (s *Server) search(ctx context.Context, qs []vsdb.Query) ([]cluster.Result, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	return s.db.Search(ctx, qs)
}

// cacheKey digests (epoch, query) into the LRU key — the one hasher
// every query endpoint shares, so endpoints that execute the same query
// answer from the same entry (a minimal-matching /query/mesh upload hits
// what /knn cached for its extracted set, a /knn/batch entry what /knn
// did). Kind, mode and matching size lead the digest and the parameter is
// hashed bit-exactly, so k-nn with different k, range with different ε,
// minimal and partial(i) never collide by construction of the prefix: a
// partial-matching answer is never served to a minimal-matching request,
// nor the reverse. The database epoch leads everything:
// any mutation advances it, so every entry cached against the previous
// state simply stops being reachable — the stale-neighbor bug of serving
// a pre-insert result after the database has changed cannot occur.
// (Compaction does not advance the epoch: it changes the representation,
// not the answers, so those cache entries stay correct and stay live. A
// cluster's epoch is the sum of its shard epochs — also advanced by every
// mutation.)
func cacheKey(epoch uint64, q *vsdb.Query) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	word(epoch)
	mode := uint64(q.Kind)
	if q.Match.Partial {
		mode |= 1 << 9
	}
	word(mode)
	if q.Match.Partial {
		word(uint64(q.Match.I))
	}
	if q.Kind == vsdb.KNN {
		word(uint64(q.K))
	} else {
		word(math.Float64bits(q.Eps))
	}
	for _, v := range q.Set {
		word(uint64(len(v)))
		for _, x := range v {
			word(math.Float64bits(x))
		}
	}
	return h.Sum64()
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	s.objectM.count.Add(1)
	start := time.Now()
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.objectM.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid object id"})
		return
	}
	set := s.db.Get(id)
	if set == nil {
		s.objectM.errors.Add(1)
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("object %d not found", id)})
		return
	}
	s.objectM.latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, ObjectResponse{ID: id, Set: set})
}

// ---------------------------------------------------------------------------
// Mutation endpoints (DESIGN.md §8). These run inline rather than on the
// query slot pool: vsdb serializes writers internally, a single mutation
// is cheap (the WAL append dominates), and admission-controlling them
// behind long-running queries would only grow the writer queue. The
// mutation routes to the owning shard.

// MutateRequest is the body of /insert (id + set) and /delete (id only).
type MutateRequest struct {
	ID  uint64      `json:"id"`
	Set [][]float64 `json:"set,omitempty"`
}

// MutateResponse is returned by /insert and /delete: the epoch after the
// mutation and the live object count.
type MutateResponse struct {
	ID      uint64 `json:"id"`
	Epoch   uint64 `json:"epoch"`
	Objects int    `json:"objects"`
}

// CompactResponse is returned by /compact.
type CompactResponse struct {
	Epoch          uint64  `json:"epoch"`
	Compactions    int64   `json:"compactions"`
	DeltaObjects   int     `json:"delta_objects"`
	TombstoneRatio float64 `json:"tombstone_ratio"`
	WALRecords     int64   `json:"wal_records"`
}

// errCode maps a failed search or mutation to its status: a set the
// engine refused as non-finite is the client's (400), an unavailable
// shard — down, timed out, failing under fault injection — is a gateway
// failure (502: the coordinator could not reach a complete answer), and
// anything else is the server's (500).
func errCode(err error) int {
	switch {
	case errors.Is(err, vsdb.ErrNonFinite):
		return http.StatusBadRequest
	case cluster.Unavailable(err):
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

// mutateErrCode is errCode with the mutation's expected conflict mapped
// to its own code.
func mutateErrCode(err, conflict error, conflictCode int) int {
	if errors.Is(err, conflict) {
		return conflictCode
	}
	return errCode(err)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.insertM.count.Add(1)
	start := time.Now()
	var req MutateRequest
	if !s.decodeBody(w, r, &s.insertM, &req, false) {
		return
	}
	// The engine checks the same; checking here keeps a malformed set a
	// 400 in the request's own wording.
	if err := vsdb.CheckSet(req.Set, s.db.Dim(), s.db.MaxCard(), false); err != nil {
		s.insertM.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if err := s.db.Insert(req.ID, req.Set); err != nil {
		s.insertM.errors.Add(1)
		writeJSON(w, mutateErrCode(err, vsdb.ErrExists, http.StatusConflict), errorResponse{Error: err.Error()})
		return
	}
	s.insertM.latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, MutateResponse{ID: req.ID, Epoch: s.db.Epoch(), Objects: s.db.Len()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.deleteM.count.Add(1)
	start := time.Now()
	var req MutateRequest
	if !s.decodeBody(w, r, &s.deleteM, &req, false) {
		return
	}
	if err := s.db.Delete(req.ID); err != nil {
		s.deleteM.errors.Add(1)
		writeJSON(w, mutateErrCode(err, vsdb.ErrNotFound, http.StatusNotFound), errorResponse{Error: err.Error()})
		return
	}
	s.deleteM.latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, MutateResponse{ID: req.ID, Epoch: s.db.Epoch(), Objects: s.db.Len()})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.compactM.count.Add(1)
	start := time.Now()
	// The body is an optional empty object; a malformed body is a client
	// error (400), not something to silently ignore.
	var body struct{}
	if !s.decodeBody(w, r, &s.compactM, &body, true) {
		return
	}
	if err := s.db.Compact(); err != nil {
		s.compactM.errors.Add(1)
		writeJSON(w, mutateErrCode(err, errNoConflict, 0), errorResponse{Error: err.Error()})
		return
	}
	s.compactM.latency.observe(time.Since(start))
	st := s.db.Stats()
	writeJSON(w, http.StatusOK, CompactResponse{
		Epoch:          s.db.Epoch(),
		Compactions:    st.Compactions,
		DeltaObjects:   st.DeltaLen,
		TombstoneRatio: st.TombstoneRatio,
		WALRecords:     st.WALRecords,
	})
}

// errNoConflict is a sentinel no error ever wraps, for mutations with no
// conflict case.
var errNoConflict = errors.New("server: no conflict")

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "warming"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Objects: s.db.Len()})
}

func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	mode := "strict"
	if s.db.Partial() {
		mode = "partial"
	}
	writeJSON(w, http.StatusOK, ClusterResponse{
		Shards:   s.db.N(),
		Replicas: s.db.Replicas(),
		Mode:     mode,
		Objects:  s.db.Len(),
		Epoch:    s.db.Epoch(),
		Status:   s.db.Status(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// MetricsSnapshot assembles the /metrics body: per-endpoint counters and
// latency histograms, the filter pipeline's refinement accounting, the
// simulated page I/O priced under the paper's cost model, and the
// per-shard gauges (one shard for a single database).
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	st := s.db.Stats()
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Objects:       s.db.Len(),
		Workers:       s.Workers(),
		CacheEntries:  s.cache.len(),
		Endpoints: map[string]EndpointSnapshot{
			"knn":              s.knnM.snapshot(),
			"knn_batch":        s.batchM.snapshot(),
			"range":            s.rangeM.snapshot(),
			"object":           s.objectM.snapshot(),
			"insert":           s.insertM.snapshot(),
			"delete":           s.deleteM.snapshot(),
			"compact":          s.compactM.snapshot(),
			"query_mesh":       s.meshM.snapshot(),
			"query_mesh_batch": s.meshBatchM.snapshot(),
		},
		BatchSizes:      s.batchSizes.snapshot(),
		BatchQueries:    s.batchQueries.Load(),
		Refinements:     st.Refinements,
		Matchings:       st.Matchings,
		SignaturePruned: st.SignaturePruned,
		Epoch:           s.db.Epoch(),
		WALRecords:      st.WALRecords,
		DeltaObjects:    st.DeltaLen,
		TombstoneRatio:  st.TombstoneRatio,
		Compactions:     st.Compactions,
		ClusterShards:   s.db.N(),
		Shards:          s.db.Status(),
	}
	if s.db.ReplicationEnabled() {
		snap.Replication = &ReplicationSnapshot{
			Replicas:          s.db.Replicas(),
			FollowerReads:     s.db.FollowerReadsEnabled(),
			ServedByFollowers: s.db.FollowerReadCount(),
			Promotions:        s.db.Promotions(),
			MaxLag:            s.db.MaxReplicaLag(),
			FencedFrames:      s.db.FencedFrames(),
		}
	}
	if s.meshM.count.Load() > 0 || s.meshBatchM.count.Load() > 0 {
		snap.QueryMeshStages = s.meshStages.snapshot()
	}
	if queries := s.queries.Load(); queries > 0 {
		snap.RefinedPerQuery = float64(snap.Refinements) / float64(queries)
		if s.db.Len() > 0 {
			snap.CandidateRatio = snap.RefinedPerQuery / float64(s.db.Len())
		}
	}
	if s.tracker != nil {
		snap.IO = IOSnapshot{
			Pages:         s.tracker.PageAccesses(),
			Bytes:         s.tracker.BytesRead(),
			SimulatedIOMS: float64(s.tracker.IOTime(storage.PaperCostModel)) / float64(time.Millisecond),
		}
	}
	return snap
}

// ---------------------------------------------------------------------------
// Lifecycle

// Serve accepts connections on l until ctx is cancelled, then shuts down
// gracefully: in-flight requests drain (bounded by grace, default 10s)
// before Serve returns. The error is nil on clean shutdown.
func (s *Server) Serve(ctx context.Context, l net.Listener, grace time.Duration) error {
	if grace <= 0 {
		grace = 10 * time.Second
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	case err := <-errc:
		return err
	}
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l, grace)
}
