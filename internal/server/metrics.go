package server

import (
	"sync/atomic"
	"time"

	"github.com/voxset/voxset/internal/cluster"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// exponential latency histogram; the implicit last bucket is +Inf.
var latencyBucketsMS = [...]float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// histogram is a fixed-bucket latency histogram, safe for concurrent
// observation.
type histogram struct {
	counts [len(latencyBucketsMS) + 1]atomic.Int64
	sumNS  atomic.Int64
	n      atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// HistogramSnapshot is one bucket row of the serialized histogram.
type HistogramSnapshot struct {
	LE    float64 `json:"le_ms"` // upper bound in ms; +Inf encoded as -1
	Count int64   `json:"count"`
}

func (h *histogram) snapshot() []HistogramSnapshot {
	out := make([]HistogramSnapshot, 0, len(h.counts))
	for i := range h.counts {
		le := -1.0
		if i < len(latencyBucketsMS) {
			le = latencyBucketsMS[i]
		}
		out = append(out, HistogramSnapshot{LE: le, Count: h.counts[i].Load()})
	}
	return out
}

// batchSizeBuckets are the upper bounds (entries, inclusive) of the
// /knn/batch batch-size histogram; the implicit last bucket is +Inf.
var batchSizeBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64, 128}

// sizeHistogram counts /knn/batch batch sizes, safe for concurrent
// observation.
type sizeHistogram struct {
	counts [len(batchSizeBuckets) + 1]atomic.Int64
}

func (h *sizeHistogram) observe(n int) {
	i := 0
	for i < len(batchSizeBuckets) && int64(n) > batchSizeBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
}

// SizeHistogramSnapshot is one bucket row of the batch-size histogram.
type SizeHistogramSnapshot struct {
	LE    int64 `json:"le"` // upper bound in entries; +Inf encoded as -1
	Count int64 `json:"count"`
}

func (h *sizeHistogram) snapshot() []SizeHistogramSnapshot {
	out := make([]SizeHistogramSnapshot, 0, len(h.counts))
	for i := range h.counts {
		le := int64(-1)
		if i < len(batchSizeBuckets) {
			le = batchSizeBuckets[i]
		}
		out = append(out, SizeHistogramSnapshot{LE: le, Count: h.counts[i].Load()})
	}
	return out
}

// endpointMetrics aggregates one endpoint's counters.
type endpointMetrics struct {
	count     atomic.Int64
	errors    atomic.Int64
	timeouts  atomic.Int64
	cacheHits atomic.Int64
	latency   histogram
}

// EndpointSnapshot is the JSON form of one endpoint's metrics.
type EndpointSnapshot struct {
	Count         int64               `json:"count"`
	Errors        int64               `json:"errors"`
	Timeouts      int64               `json:"timeouts"`
	CacheHits     int64               `json:"cache_hits"`
	MeanLatencyMS float64             `json:"mean_latency_ms"`
	Latency       []HistogramSnapshot `json:"latency_histogram"`
}

func (m *endpointMetrics) snapshot() EndpointSnapshot {
	s := EndpointSnapshot{
		Count:     m.count.Load(),
		Errors:    m.errors.Load(),
		Timeouts:  m.timeouts.Load(),
		CacheHits: m.cacheHits.Load(),
		Latency:   m.latency.snapshot(),
	}
	if n := m.latency.n.Load(); n > 0 {
		s.MeanLatencyMS = float64(m.latency.sumNS.Load()) / float64(n) / float64(time.Millisecond)
	}
	return s
}

// meshStageMetrics aggregates the per-stage latency of /query/mesh
// (and each /query/mesh/batch entry): parse (STL decode), voxelize
// (rasterize + normalize), extract (greedy cover → vector set), search
// (the backend query). The sum of the stages is the pipeline cost; the
// endpoint histogram holds the end-to-end view.
type meshStageMetrics struct {
	parse, voxelize, extract, search histogram
}

func (m *meshStageMetrics) observe(st MeshStages) {
	m.parse.observe(time.Duration(st.ParseMS * float64(time.Millisecond)))
	m.voxelize.observe(time.Duration(st.VoxelizeMS * float64(time.Millisecond)))
	m.extract.observe(time.Duration(st.ExtractMS * float64(time.Millisecond)))
	m.search.observe(time.Duration(st.SearchMS * float64(time.Millisecond)))
}

// MeshStageSnapshot is the /metrics "query_mesh_stages" section: one
// latency histogram (plus mean) per pipeline stage.
type MeshStageSnapshot struct {
	Parse    StageLatencySnapshot `json:"parse"`
	Voxelize StageLatencySnapshot `json:"voxelize"`
	Extract  StageLatencySnapshot `json:"extract"`
	Search   StageLatencySnapshot `json:"search"`
}

// StageLatencySnapshot is one stage's serialized latency histogram.
type StageLatencySnapshot struct {
	MeanLatencyMS float64             `json:"mean_latency_ms"`
	Latency       []HistogramSnapshot `json:"latency_histogram"`
}

func stageSnapshot(h *histogram) StageLatencySnapshot {
	s := StageLatencySnapshot{Latency: h.snapshot()}
	if n := h.n.Load(); n > 0 {
		s.MeanLatencyMS = float64(h.sumNS.Load()) / float64(n) / float64(time.Millisecond)
	}
	return s
}

func (m *meshStageMetrics) snapshot() *MeshStageSnapshot {
	return &MeshStageSnapshot{
		Parse:    stageSnapshot(&m.parse),
		Voxelize: stageSnapshot(&m.voxelize),
		Extract:  stageSnapshot(&m.extract),
		Search:   stageSnapshot(&m.search),
	}
}

// IOSnapshot reports the simulated page I/O charged to the server's
// tracker, priced under the paper's §5.4 cost model.
type IOSnapshot struct {
	Pages         int64   `json:"pages"`
	Bytes         int64   `json:"bytes"`
	SimulatedIOMS float64 `json:"simulated_io_ms"`
}

// MetricsSnapshot is the /metrics response body.
type MetricsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Objects       int                         `json:"objects"`
	Workers       int                         `json:"workers"`
	CacheEntries  int                         `json:"cache_entries"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	// Refinements is the cumulative number of candidates fetched and
	// handed to the matching kernel; RefinedPerQuery and CandidateRatio
	// relate it to the queries executed — by every query endpoint, one per
	// single request and one per batch entry, cache hits included,
	// rejected requests not — and to the database size (the filter's
	// selectivity: a ratio of 1 would mean the filter prunes nothing).
	// Matchings is how many of them ran the Hungarian solve to completion
	// rather than being settled by the kernel's O(k²) lower bound.
	// SignaturePruned counts the candidates past the centroid bound that
	// the signature bound settled before they were fetched (DESIGN.md §6).
	Refinements     int64      `json:"refinements"`
	Matchings       int64      `json:"matchings"`
	SignaturePruned int64      `json:"signature_pruned"`
	RefinedPerQuery float64    `json:"refined_per_query"`
	CandidateRatio  float64    `json:"candidate_ratio"`
	IO              IOSnapshot `json:"io"`
	// /knn/batch gauges: the distribution of request batch sizes and the
	// total number of batch entries (logical queries) served through the
	// batch endpoint.
	BatchSizes   []SizeHistogramSnapshot `json:"batch_sizes"`
	BatchQueries int64                   `json:"batch_queries"`
	// Live-update gauges (DESIGN.md §8): the mutation epoch, the number
	// of records in the attached write-ahead log, the delta-memtable
	// length, the tombstone ratio of the filter index, and the number of
	// compaction passes performed so far.
	Epoch          uint64  `json:"epoch"`
	WALRecords     int64   `json:"wal_records"`
	DeltaObjects   int     `json:"delta_objects"`
	TombstoneRatio float64 `json:"tombstone_ratio"`
	Compactions    int64   `json:"compactions"`
	// Coordinator gauges (DESIGN.md §9): the shard count and each
	// shard's serving state — per-shard latency, errors, timeouts,
	// retries, epoch, WAL and live-update gauges. A single database
	// reports itself as one shard.
	ClusterShards int                   `json:"cluster_shards,omitempty"`
	Shards        []cluster.ShardStatus `json:"shards,omitempty"`
	// Query-by-upload stage latencies (DESIGN.md §14). Absent until a
	// mesh query has been served.
	QueryMeshStages *MeshStageSnapshot `json:"query_mesh_stages,omitempty"`
	// Replication gauges (DESIGN.md §13). Absent unless the coordinator
	// runs with per-shard replica sets.
	Replication *ReplicationSnapshot `json:"replication,omitempty"`
}

// ReplicationSnapshot is the /metrics "replication" section (DESIGN.md
// §13): the replica-set shape, whether follower reads are on and how
// many reads followers have served, the number of failover promotions,
// the worst current follower lag in records, and the number of shipped
// frames dropped by term fences (stale-primary traffic).
type ReplicationSnapshot struct {
	Replicas          int    `json:"replicas"`
	FollowerReads     bool   `json:"follower_reads"`
	ServedByFollowers int64  `json:"served_by_followers"`
	Promotions        int64  `json:"promotions"`
	MaxLag            uint64 `json:"max_lag"`
	FencedFrames      int64  `json:"fenced_frames"`
}
