package server

import (
	"fmt"
	"net/http"
	"time"

	"github.com/voxset/voxset/internal/vsdb"
)

// maxBatchSize bounds one /knn/batch request. The cap keeps a single
// request from monopolizing the query slot it runs on: a client with
// more queries splits them into several batches and the slot pool
// interleaves them with other traffic.
const maxBatchSize = 1024

// BatchRequest is the body of /knn/batch: each entry is a complete /knn
// request body ("set" or "id", plus "k", which may differ per entry).
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResponse is the body returned by /knn/batch. Results[i] answers
// Queries[i] with the same neighbors a /knn call carrying that entry
// would return — the batch endpoint changes the transport and the
// scheduling, never the answer.
type BatchResponse struct {
	Results   []QueryResponse `json:"results"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// handleKNNBatch answers N k-nn queries in one request. The whole batch
// is validated up front (a bad entry fails the batch with its index, so
// clients never guess which entry was rejected) and then executed like
// any other query: probed against the cache entry by entry under the keys
// /knn itself uses (so a batch entry hits results cached by single
// queries and vice versa), the misses in ONE backend Search — whatever
// mix of k they carry — so a cluster coordinator visits every shard
// exactly once for the whole batch.
func (s *Server) handleKNNBatch(w http.ResponseWriter, r *http.Request) {
	m := &s.batchM
	m.count.Add(1)
	start := time.Now()
	var req BatchRequest
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
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("batch size %d exceeds limit %d", n, maxBatchSize)})
		return
	}

	// Validate every entry before running any: a batch is one request and
	// fails as one request.
	qs := make([]vsdb.Query, n)
	for i := range req.Queries {
		var err error
		if qs[i], err = s.resolveQuery(&req.Queries[i], vsdb.KNN); err != nil {
			m.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("queries[%d]: %s", i, err)})
			return
		}
	}
	s.batchSizes.observe(n)
	s.batchQueries.Add(int64(n))

	results, ok := s.execute(w, r, m, start, qs)
	if !ok {
		return
	}
	m.latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, BatchResponse{Results: results, ElapsedMS: msSince(start)})
}
