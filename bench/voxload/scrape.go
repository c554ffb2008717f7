package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// serverMetrics is the part of voxserve's GET /metrics body the benchmark
// reads. The harness keeps its own copy of the shape (rather than importing
// server.MetricsSnapshot) so that a renamed field shows up as a failing
// fixture test here, not as a silently zero metric.
type serverMetrics struct {
	Objects   int `json:"objects"`
	Endpoints map[string]struct {
		Count     int64 `json:"count"`
		Errors    int64 `json:"errors"`
		Timeouts  int64 `json:"timeouts"`
		CacheHits int64 `json:"cache_hits"`
	} `json:"endpoints"`
	Refinements int64 `json:"refinements"`
	IO          struct {
		Pages         int64   `json:"pages"`
		SimulatedIOMS float64 `json:"simulated_io_ms"`
	} `json:"io"`
	BatchQueries int64 `json:"batch_queries"`
	WALRecords   int64 `json:"wal_records"`
	DeltaObjects int   `json:"delta_objects"`
	Compactions  int64 `json:"compactions"`
	Stages       *struct {
		Parse    stageLatency `json:"parse"`
		Voxelize stageLatency `json:"voxelize"`
		Extract  stageLatency `json:"extract"`
		Search   stageLatency `json:"search"`
	} `json:"query_mesh_stages"`
	Replication *struct {
		MaxLag       uint64 `json:"max_lag"`
		FencedFrames int64  `json:"fenced_frames"`
	} `json:"replication"`
}

type stageLatency struct {
	MeanMS    float64 `json:"mean_latency_ms"`
	Histogram []struct {
		Count int64 `json:"count"`
	} `json:"latency_histogram"`
}

// sum returns the stage's observation count and total time: the server
// publishes a mean and a histogram, and a window's mean needs both ends'
// totals.
func (s stageLatency) sum() (n int64, totalMS float64) {
	for _, b := range s.Histogram {
		n += b.Count
	}
	return n, s.MeanMS * float64(n)
}

func parseMetrics(data []byte) (*serverMetrics, error) {
	var m serverMetrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	if m.Endpoints == nil {
		return nil, fmt.Errorf("parsing /metrics: no \"endpoints\" section")
	}
	return &m, nil
}

func scrapeMetrics(base string) (*serverMetrics, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(data)
}

// windowCounts are the source-A per-layer numbers: what the server's own
// counters say happened between two scrapes.
type windowCounts struct {
	queries         int64 // logical queries: /knn + /range + batch entries + /query/mesh
	refinedPerQuery float64
	candidateRatio  float64
	pagesPerQuery   float64
	simIOMSPerQuery float64
	cacheHitRatio   float64
	timeouts        int64
	errors          int64
	compactions     int64
	deltaObjectsEnd int
	walRecords      int64
	maxLag          uint64
	fencedFrames    int64
	parseMS         float64
	voxelizeMS      float64
	extractMS       float64
	searchMS        float64
}

func metricsDelta(before, after *serverMetrics) windowCounts {
	var w windowCounts
	var lookups, hits int64
	for name, a := range after.Endpoints {
		b := before.Endpoints[name]
		w.timeouts += a.Timeouts - b.Timeouts
		w.errors += a.Errors - b.Errors
		switch name {
		case "knn", "range":
			lookups += a.Count - b.Count
			hits += a.CacheHits - b.CacheHits
			w.queries += a.Count - b.Count
		case "knn_batch":
			// The batch endpoint probes the cache once per entry, so its
			// lookups are the entries, counted below.
			hits += a.CacheHits - b.CacheHits
		case "query_mesh":
			w.queries += a.Count - b.Count
		}
	}
	entries := after.BatchQueries - before.BatchQueries
	lookups += entries
	w.queries += entries
	if lookups > 0 {
		w.cacheHitRatio = float64(hits) / float64(lookups)
	}
	if w.queries > 0 {
		q := float64(w.queries)
		w.refinedPerQuery = float64(after.Refinements-before.Refinements) / q
		if after.Objects > 0 {
			w.candidateRatio = w.refinedPerQuery / float64(after.Objects)
		}
		w.pagesPerQuery = float64(after.IO.Pages-before.IO.Pages) / q
		w.simIOMSPerQuery = (after.IO.SimulatedIOMS - before.IO.SimulatedIOMS) / q
	}
	w.compactions = after.Compactions - before.Compactions
	w.deltaObjectsEnd = after.DeltaObjects
	w.walRecords = after.WALRecords - before.WALRecords
	if r := after.Replication; r != nil {
		w.maxLag = r.MaxLag
		w.fencedFrames = r.FencedFrames
		if before.Replication != nil {
			w.fencedFrames -= before.Replication.FencedFrames
		}
	}
	if a := after.Stages; a != nil {
		stage := func(pick func(*serverMetrics) stageLatency) float64 {
			na, ta := pick(after).sum()
			var nb int64
			var tb float64
			if before.Stages != nil {
				nb, tb = pick(before).sum()
			}
			if na == nb {
				return 0
			}
			return (ta - tb) / float64(na-nb)
		}
		w.parseMS = stage(func(m *serverMetrics) stageLatency { return m.Stages.Parse })
		w.voxelizeMS = stage(func(m *serverMetrics) stageLatency { return m.Stages.Voxelize })
		w.extractMS = stage(func(m *serverMetrics) stageLatency { return m.Stages.Extract })
		w.searchMS = stage(func(m *serverMetrics) stageLatency { return m.Stages.Search })
	}
	return w
}
