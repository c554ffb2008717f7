package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smoke drives the whole harness — build voxserve, set up, load, oracle,
// durability — on the 500-object corpus with 1 s windows.
func smoke(t *testing.T, trace bool) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(root, "bench", "out")
	start := time.Now()
	if err := run(options{workload: "all", seed: 3, seconds: 1, trace: trace, smoke: true}); err != nil {
		t.Fatal(err)
	}
	t.Logf("all four workloads (trace %v) in %s", trace, time.Since(start).Round(time.Millisecond))
	if left, _ := filepath.Glob(filepath.Join(outDir, "scratch-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	live.Lock()
	n := len(live.procs)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d voxserve children still tracked after the run", n)
	}
}

func TestSmoke(t *testing.T) {
	start := time.Now()
	smoke(t, false)
	if d := time.Since(start); d > 20*time.Second && !raceEnabled {
		t.Errorf("the smoke pass took %s, want under 20 s", d.Round(time.Millisecond))
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke pass skipped with -short")
	}
	smoke(t, true)
}

// One smoke run in detail: exactly two connections, every metric present
// and non-zero, the oracle and the durability check exercised.
func TestSmokeRunDetail(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := buildVoxserve(root, outDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(runConfig{wl: findWorkload("write-mix"), seed: 5, seconds: 1, sz: smokeSizes,
		voxserve: bin, outDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, %d of %d failed: %v %v", res.Correct, res.Failed, res.Attempted, res.Detail.Mismatches, res.Detail.Failures)
	}
	if res.Detail.ConnectionsOpened != conns {
		t.Errorf("%d connections opened, want exactly %d", res.Detail.ConnectionsOpened, conns)
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
			t.Errorf("end-to-end metric %s = %+v", d.name, v)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, want exactly the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
	if res.Detail.OracleChecked == 0 || res.Detail.DurabilityChecked == 0 {
		t.Errorf("oracle checked %d responses, durability %d objects; both must run", res.Detail.OracleChecked, res.Detail.DurabilityChecked)
	}
	if res.Detail.Layers["wal.recover_ms"] <= 0 || res.Detail.Layers["wal.records"] <= 0 {
		t.Errorf("write-mix per-layer counts missing: %v", res.Detail.Layers)
	}
}
