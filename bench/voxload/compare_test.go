package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// BENCHMARK.json and the Go tables name the same workloads and metrics, with
// the same units and directions, and the file stays inside the driver's
// limits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := loadBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness reports %d", len(bm.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, g := range bm.EndToEnd {
		d := endToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the harness", i, g, d)
		}
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
		if g.Name == "setup_s" {
			sawSetup = g.Unit == "s" && g.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bm.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d (limit 128)", len(bm.PerLayer), len(perLayer))
	}
	names := map[string]bool{}
	for i, p := range bm.PerLayer {
		d := perLayer[i]
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the harness", i, p, d)
		}
		if names[p.Name] {
			t.Errorf("per-layer metric %s is listed twice", p.Name)
		}
		names[p.Name] = true
	}
	// The ladder's span names all feed a listed metric.
	for span, metric := range layerOf {
		if !names[metric] {
			t.Errorf("ladder span %q feeds %q, which BENCHMARK.json does not list", span, metric)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := gatedMetric{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := gatedMetric{Name: "qps", Better: "higher", Bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name string
		a, b []float64
		g    gatedMetric
		want string
	}{
		{"latency up 20 %", tight, scaled(tight, 1.2), lower, "worse"},
		{"latency down 20 %", tight, scaled(tight, 0.8), lower, "better"},
		{"latency up 5 %", tight, scaled(tight, 1.05), lower, "same"},
		{"throughput down 20 %", tight, scaled(tight, 0.8), higher, "worse"},
		{"throughput up 20 %", tight, scaled(tight, 1.2), higher, "better"},
		{"base too noisy to call", noisy, scaled(tight, 1.3), lower, "unresolved"},
		{"single runs, 20 % up", []float64{1}, []float64{1.2}, lower, "worse"},
	} {
		ratio, _, got := verdict(c.a, c.b, c.g)
		if got != c.want {
			t.Errorf("%s: verdict %q (ratio %.3f), want %q", c.name, got, ratio, c.want)
		}
	}
}

func TestSummarizeRepeatGatesOnSpread(t *testing.T) {
	bm := &benchmarkFile{EndToEnd: []gatedMetric{
		{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	mk := func(qps, setup float64) *runResult {
		return &runResult{Workload: "knn-exact", Metrics: map[string]metricValue{
			"qps": {qps, "1/s"}, "setup_s": {setup, "s"}}}
	}
	rows, err := summarizeRepeat([]*runResult{mk(1000, 2), mk(1040, 4)}, bm)
	if err != nil {
		t.Errorf("a 4 %% qps spread is inside the 10 %% bound (setup_s is not gated within a set): %v", err)
	}
	if len(rows) != 2 || rows[0].Median != 1020 {
		t.Errorf("unexpected summary rows: %+v", rows)
	}
	if _, err := summarizeRepeat([]*runResult{mk(1000, 2), mk(1300, 2)}, bm); err == nil {
		t.Error("a 26 % qps spread must fail the 10 % bound")
	}
}

func TestCompareReadsRepeatDocuments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps float64) string {
		doc := document{Schema: "voxload/1"}
		for i := 0; i < 4; i++ {
			doc.Runs = append(doc.Runs, &runResult{Workload: "knn-exact",
				Metrics: map[string]metricValue{"qps": {qps + float64(i), "1/s"}}})
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := compareDocs(root, write("a.json", 1000), write("b.json", 900)); err != nil {
		t.Fatal(err)
	}
	if err := compareDocs(root, write("c.json", 1000), filepath.Join(dir, "missing.json")); err == nil {
		t.Error("comparing against a missing document must fail")
	}
}
