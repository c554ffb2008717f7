package main

import (
	"os"
	"testing"
)

func loadFixture(t *testing.T, name string) *serverMetrics {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseMetrics(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The fixtures are two GET /metrics bodies recorded from a live voxserve
// (2 shards, per-shard WALs, one follower each). Between them the server
// answered: 7 /knn (3 from the cache), 2 /range (1 cached), one /knn/batch
// of 4 entries (1 cached), 2 /query/mesh, 3 /insert, 2 /delete (one a 404).
func TestMetricsDeltaAgainstRecordedFixture(t *testing.T) {
	before, after := loadFixture(t, "metrics_before.json"), loadFixture(t, "metrics_after.json")
	w := metricsDelta(before, after)
	if w.queries != 15 {
		t.Errorf("logical queries = %d, want 15 (7 knn + 2 range + 4 batch entries + 2 mesh)", w.queries)
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"cache hit ratio", w.cacheHitRatio, 5.0 / 13},
		{"refined per query", w.refinedPerQuery, (863.0 - 77) / 15},
		{"candidate ratio", w.candidateRatio, (863.0 - 77) / 15 / 302},
		{"pages per query", w.pagesPerQuery, (146.0 - 53) / 15},
		{"simulated I/O ms per query", w.simIOMSPerQuery, (1237.856 - 458.0864) / 15},
		{"mesh parse mean ms", w.parseMS, (0.17202133333333333*3 - 0.211496) / 2},
		{"mesh search mean ms", w.searchMS, (0.21286733333333335*3 - 0.39267) / 2},
	} {
		if !near(c.got, c.want) && !(c.got-c.want < 1e-9 && c.want-c.got < 1e-9) {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	if w.errors != 1 || w.timeouts != 0 {
		t.Errorf("errors, timeouts = %d, %d; want 1, 0", w.errors, w.timeouts)
	}
	if w.walRecords != 4 || w.deltaObjectsEnd != 2 || w.compactions != 0 {
		t.Errorf("wal records, delta objects, compactions = %d, %d, %d; want 4, 2, 0", w.walRecords, w.deltaObjectsEnd, w.compactions)
	}
	if w.maxLag != 0 || w.fencedFrames != 0 {
		t.Errorf("replication lag, fenced = %d, %d; want 0, 0", w.maxLag, w.fencedFrames)
	}
	if after.Replication == nil || after.Stages == nil {
		t.Error("the fixture's replication or query_mesh_stages section was not parsed")
	}
}

func TestParseMetricsRejectsOtherJSON(t *testing.T) {
	if _, err := parseMetrics([]byte(`{"status":"ok"}`)); err == nil {
		t.Error("a body without an endpoints section must not parse as /metrics")
	}
	if _, err := parseMetrics([]byte(`not json`)); err == nil {
		t.Error("garbage must not parse as /metrics")
	}
}
