package main

import (
	"path/filepath"
	"strconv"

	"github.com/voxset/voxset/internal/snapshot"
)

// workload is one named traffic mix and the server it runs against. The
// names are fixed: later issues cite them.
type workload struct {
	name   string
	shards int  // snapshot layout served: 1 = a single mmap'd database, else a cluster
	cache  int  // voxserve -cache: LRU entries, negative disables
	wal    bool // per-shard WALs (fsync on) and one follower per shard
	// query is the op query_p50_ms / query_p95_ms time: the one the workload
	// exists to watch. The latencies of its other ops are per-layer metrics.
	query opKind
	// The diagnostic open loop's two offered rates: ≈ 30 % and ≈ 60 % of
	// the closed-loop qps measured on the reference box when the benchmark
	// landed.
	openRates [2]float64
}

// args is the voxserve command line for a snapshot directory and a WAL
// directory (unused unless w.wal). fsync stays on: no -wal-nosync, so every
// acknowledged mutation has reached its shard's log on disk.
func (w *workload) args(snapDir, walDir string) []string {
	args := []string{"-cache", strconv.Itoa(w.cache)}
	if w.shards == 1 {
		args = append(args, "-snapshot", singleFile(snapDir))
	} else {
		args = append(args, "-snapshot-dir", snapDir)
	}
	if w.wal {
		args = append(args, "-wal-dir", walDir, "-replicas", "1")
	}
	return args
}

// p95LimitMS is what loadgen.max_rate_ok holds an offered rate to: every op
// type listed here must keep its p95, timed from the due time, within its
// limit. Op types not listed carry no limit.
var p95LimitMS = map[opKind]float64{opKNN: 10, opRange: 10, opMesh: 50, opInsert: 5}

func singleFile(dir string) string { return filepath.Join(dir, snapshot.ShardSnapshotName(0)) }

var workloads = []*workload{
	{name: "knn-exact", shards: 1, cache: -1, query: opKNN, openRates: [2]float64{330, 660}},
	{name: "sharded-cached", shards: 4, cache: 256, query: opKNN, openRates: [2]float64{390, 780}},
	{name: "write-mix", shards: 2, cache: 256, wal: true, query: opKNN, openRates: [2]float64{170, 340}},
	{name: "mesh-upload", shards: 1, cache: -1, query: opMesh, openRates: [2]float64{65, 130}},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (a test holds the two together).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics, measured in the timed closed loop with
// tracing off. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_mb", "MiB", "lower"},
}

// perLayer are the ungated per-layer metrics of a -trace 1 run. A metric
// whose layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// Source A: server counters and client-side splits over an untraced window.
	{"filter.refined_per_query", "count", "lower"},
	{"filter.candidate_ratio", "ratio", "lower"},
	{"storage.pages_per_query", "count", "lower"},
	{"storage.sim_io_ms_per_query", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.timeouts", "count", "lower"},
	{"server.errors", "count", "lower"},
	{"server.range_b0_p50_ms", "ms", "lower"},
	{"server.range_b1_p50_ms", "ms", "lower"},
	{"server.range_b2_p50_ms", "ms", "lower"},
	{"server.hit_p50_ms", "ms", "lower"},
	{"server.miss_p50_ms", "ms", "lower"},
	{"server.range_p50_ms", "ms", "lower"},
	{"server.batch_p50_ms", "ms", "lower"},
	{"server.batch_p95_ms", "ms", "lower"},
	{"server.insert_p50_ms", "ms", "lower"},
	{"server.insert_p95_ms", "ms", "lower"},
	{"vsdb.compactions", "count", "lower"},
	{"vsdb.compaction_stall_ms", "ms", "lower"},
	{"vsdb.delta_objects_end", "count", "lower"},
	{"wal.records", "count", "lower"},
	{"wal.bytes_per_insert", "bytes", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"replica.max_lag", "count", "lower"},
	{"replica.fenced_frames", "count", "lower"},
	{"meshquery.parse_ms", "ms", "lower"},
	{"meshquery.voxelize_ms", "ms", "lower"},
	{"meshquery.extract_ms", "ms", "lower"},
	{"meshquery.search_ms", "ms", "lower"},
	{"ingest.extract_ms_per_object", "ms", "lower"},
	{"snapshot.write_ms", "ms", "lower"},
	{"snapshot.bytes_per_object", "bytes", "lower"},
	{"snapshot.open_ms", "ms", "lower"},
	// Source B: the ladder trace and the micro-timings beside it.
	{"http.self_ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"cluster.self_ms", "ms", "lower"},
	{"vsdb.self_ms", "ms", "lower"},
	{"meshquery.self_ms", "ms", "lower"},
	{"filter.self_ms", "ms", "lower"},
	{"filter.rank_ms", "ms", "lower"},
	{"filter.refine_ms", "ms", "lower"},
	{"ladder.http_p50_ms", "ms", "lower"},
	{"ladder.self_sum_ms", "ms", "lower"},
	{"server.decode_ms", "ms", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"dist.matching_ns", "ns", "lower"},
	{"dist.matching_allocs", "count", "lower"},
	{"wal.append_ms", "ms", "lower"},
	{"wal.append_nosync_ms", "ms", "lower"},
	{"replica.encode_us", "us", "lower"},
	{"replica.apply_ms", "ms", "lower"},
	{"vsdb.insert_ms", "ms", "lower"},
	{"vsdb.compact_ms", "ms", "lower"},
	{"loadgen.open_r1_p50_ms", "ms", "lower"},
	{"loadgen.open_r1_p95_ms", "ms", "lower"},
	{"loadgen.open_r2_p50_ms", "ms", "lower"},
	{"loadgen.open_r2_p95_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.max_rate_ok", "1/s", "higher"},
	{"loadgen.trace_overhead_pct", "%", "lower"},
}
