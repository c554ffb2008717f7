package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type runConfig struct {
	wl       *workload
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	voxserve string // path of the voxserve binary
	outDir   string // bench/out: logs, traces, scratch
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run. Correct, Attempted, Failed and Metrics are
// the driver's contract; Detail is everything else the run learned.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    runDetail              `json:"detail"`
}

type setupTiming struct {
	ExtractMS float64 `json:"extract_ms"`
	WriteMS   float64 `json:"snapshot_write_ms"`
	ReadyMS   float64 `json:"server_ready_ms"`
	TotalS    float64 `json:"total_s"`
}

type opSummary struct {
	Count  int     `json:"count"`
	Failed int     `json:"failed"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

type runDetail struct {
	Objects           int                  `json:"objects"`
	SnapshotBytes     int64                `json:"snapshot_bytes"`
	Setups            []setupTiming        `json:"setups"`
	WindowS           float64              `json:"window_s"`
	Slices            []sliceReading       `json:"slices"`
	Ops               map[string]opSummary `json:"ops"`
	Layers            map[string]float64   `json:"per_layer_counts"`
	Calibration       *calibration         `json:"range_calibration,omitempty"`
	RangeSizes        *[3]int              `json:"range_realised_median_sizes,omitempty"`
	MeshBytes         *[3]int              `json:"mesh_bytes_min_med_max,omitempty"`
	OracleChecked     int                  `json:"oracle_checked"`
	DurabilityChecked int                  `json:"durability_checked"`
	Mismatches        []string             `json:"mismatches,omitempty"`
	Failures          []string             `json:"first_failures,omitempty"`
	ConnectionsOpened int64                `json:"connections_opened"`
	ServerLog         string               `json:"server_log"`
	TraceFile         string               `json:"trace_file,omitempty"`
	Ladder            []ladderRow          `json:"ladder,omitempty"`
}

// instance is one completed set-up: a corpus on disk and a ready server.
type instance struct {
	corpus  *corpus
	snapDir string
	walDir  string
	bytes   int64
	srv     *child
	timing  setupTiming
}

// setUp builds the corpus from the seed, writes the workload's snapshot
// layout under root and starts voxserve on it. Its wall time is setup_s.
func setUp(cfg runConfig, root, logPath string) (*instance, error) {
	start := time.Now()
	in := &instance{snapDir: filepath.Join(root, "snap"), walDir: filepath.Join(root, "wal")}
	in.corpus = buildCorpus(cfg.seed, cfg.sz)
	extracted := time.Now()
	var err error
	if in.bytes, err = in.corpus.writeShards(in.snapDir, cfg.wl.shards); err != nil {
		return nil, fmt.Errorf("writing the snapshot: %w", err)
	}
	written := time.Now()
	var ready time.Duration
	if in.srv, ready, err = startServer(cfg.voxserve, cfg.wl.args(in.snapDir, in.walDir), logPath); err != nil {
		return nil, err
	}
	in.timing = setupTiming{
		ExtractMS: ms(extracted.Sub(start)),
		WriteMS:   ms(written.Sub(extracted)),
		ReadyMS:   ms(ready),
		TotalS:    time.Since(start).Seconds(),
	}
	return in, nil
}

func generate(cfg runConfig, c *corpus) (*requestSet, error) {
	switch cfg.wl.name {
	case "knn-exact":
		return genKNNExact(cfg.seed, c, cfg.sz), nil
	case "sharded-cached":
		return genShardedCached(cfg.seed, c, cfg.sz)
	case "write-mix":
		return genWriteMix(cfg.seed, c, cfg.sz), nil
	case "mesh-upload":
		return genMeshUpload(cfg.seed, cfg.sz)
	}
	return nil, fmt.Errorf("no generator for workload %q", cfg.wl.name)
}

// slices is how many equal parts the timed window is cut into. Every gated
// timing is computed per slice and reported as the quartile over the slices
// on its good side — the first quartile of a latency or of CPU per
// operation, the third of a throughput: "what the server does in its
// quieter seconds". The box this runs on shares its memory system with
// other tenants, and what they do only ever slows the server, by 15–25 %
// for seconds to minutes at a time (bench/README.md, "Noise"); the slower
// slices of a window therefore say more about the neighbours than about the
// program: over eight seeds this quartile spread 2.6–5.3 % on knn-exact
// where the median over the slices spread 6.6–8.5 %, and 5–12 % against
// 9–15 % on the other workloads. A slice is 3 s of the 24 s window because
// write-mix compacts about every 5 s per shard, and slices of 1–2 s follow
// the phase of that sawtooth instead of the box.
const slices = 8

// window is one measured closed-loop interval and the server-side readings
// taken at its two ends and at every slice boundary.
type window struct {
	phase         uint8
	startNS       int64 // on the workers' time base
	sliceNS       int64
	seconds       float64
	cpuS          []float64 // server CPU seconds at each slice boundary: slices+1 readings
	rssMB         float64
	counts        windowCounts
	walBytesDelta int64
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if st, err := d.Info(); err == nil {
				n += st.Size()
			}
		}
		return nil // a missing WAL directory is simply 0 bytes
	})
	return n
}

func measureWindow(in *instance, ws []*worker, d time.Duration, phase uint8) (window, error) {
	w := window{phase: phase, sliceNS: int64(d) / slices}
	before, err := scrapeMetrics(in.srv.base)
	if err != nil {
		return w, err
	}
	wal0 := dirBytes(in.walDir)
	pid := in.srv.pid()

	// A sampler reads the server's CPU time at every slice boundary while
	// the workers run.
	start := time.Now()
	w.startNS = int64(start.Sub(ws[0].t0))
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 0; i <= slices; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(int64(i) * w.sliceNS))))
			c, err := cpuSeconds(pid)
			if err != nil {
				cpuErr = err
				return
			}
			w.cpuS = append(w.cpuS, c)
		}
	}()
	runClosed(ws, d, phase)
	w.seconds = time.Since(start).Seconds()
	<-sampled
	if cpuErr != nil {
		return w, cpuErr
	}
	if w.rssMB, err = peakRSSMB(pid); err != nil {
		return w, err
	}
	after, err := scrapeMetrics(in.srv.base)
	if err != nil {
		return w, err
	}
	w.counts = metricsDelta(before, after)
	w.walBytesDelta = dirBytes(in.walDir) - wal0
	return w, nil
}

// sliceOf returns which slice of the window a sample was sent in, or -1.
func (w window) sliceOf(s sample) int {
	if s.phase != w.phase || s.sent < w.startNS {
		return -1
	}
	if i := int((s.sent - w.startNS) / w.sliceNS); i < slices {
		return i
	}
	return -1
}

// overSlices groups the ok samples that pass pick by slice, applies f to
// each slice's sorted latencies (ms), and returns the results of the slices
// that had any.
func (w window) overSlices(ws []*worker, pick func(sample) bool, f func(slice int, sorted []float64) float64) []float64 {
	var bySlice [slices][]float64
	for _, wk := range ws {
		for _, s := range wk.log {
			if i := w.sliceOf(s); i >= 0 && s.ok && pick(s) {
				bySlice[i] = append(bySlice[i], float64(s.lat)/1e6)
			}
		}
	}
	var vals []float64
	for i, lat := range bySlice {
		if len(lat) > 0 {
			sort.Float64s(lat)
			vals = append(vals, f(i, lat))
		}
	}
	return vals
}

// quietLow and quietHigh are the good-side quartile of per-slice values
// where lower, respectively higher, is better.
func quietLow(vals []float64) float64  { q1, _ := quartiles(vals); return q1 }
func quietHigh(vals []float64) float64 { _, q3 := quartiles(vals); return q3 }

// sliceReading is one slice's own values of the gated timings, kept in the
// run document so that the noise inside a window can be read afterwards.
type sliceReading struct {
	QPS        float64 `json:"qps"`
	QueryP50MS float64 `json:"query_p50_ms"`
	QueryP95MS float64 `json:"query_p95_ms"`
	CPUMSPerOp float64 `json:"cpu_ms_per_op"`
}

func (w window) readings(ws []*worker, query opKind) []sliceReading {
	out := make([]sliceReading, slices)
	w.overSlices(ws, anyOp, func(i int, lat []float64) float64 {
		out[i].QPS = float64(len(lat)) / (float64(w.sliceNS) / 1e9)
		out[i].CPUMSPerOp = (w.cpuS[i+1] - w.cpuS[i]) * 1000 / float64(len(lat))
		return 0
	})
	w.overSlices(ws, byOp(query), func(i int, lat []float64) float64 {
		out[i].QueryP50MS, out[i].QueryP95MS = percentile(lat, 50), percentile(lat, 95)
		return 0
	})
	return out
}

func (w window) percentile(ws []*worker, op opKind, p float64) float64 {
	return quietLow(w.overSlices(ws, byOp(op), func(_ int, lat []float64) float64 { return percentile(lat, p) }))
}

func anyOp(sample) bool { return true }

// qps is ok operations per second in the quieter slices.
func (w window) qps(ws []*worker) float64 {
	return quietHigh(w.overSlices(ws, anyOp, func(_ int, lat []float64) float64 {
		return float64(len(lat)) / (float64(w.sliceNS) / 1e9)
	}))
}

// cpuMSPerOp is the server's user+system CPU time per ok operation in the
// quieter slices.
func (w window) cpuMSPerOp(ws []*worker) float64 {
	return quietLow(w.overSlices(ws, anyOp, func(i int, lat []float64) float64 {
		return (w.cpuS[i+1] - w.cpuS[i]) * 1000 / float64(len(lat))
	}))
}

// latencies gathers the ok samples of one phase that pass the filter, in ms.
func latencies(ws []*worker, phase uint8, pick func(sample) bool) []float64 {
	var out []float64
	for _, w := range ws {
		for _, s := range w.log {
			if s.phase == phase && s.ok && pick(s) {
				out = append(out, float64(s.lat)/1e6)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func byOp(op opKind) func(sample) bool { return func(s sample) bool { return s.op == op } }

// summarize turns one phase of the logs into per-op summaries and totals.
func summarize(ws []*worker, phase uint8) (ops map[string]opSummary, attempted, failed int) {
	ops = map[string]opSummary{}
	for op := opKind(0); op < numOps; op++ {
		var sum opSummary
		for _, w := range ws {
			for _, s := range w.log {
				if s.phase == phase && s.op == op {
					sum.Count++
					if !s.ok {
						sum.Failed++
					}
				}
			}
		}
		if sum.Count == 0 {
			continue
		}
		lat := latencies(ws, phase, byOp(op))
		sum.P50MS, sum.P95MS, sum.P99MS = percentile(lat, 50), percentile(lat, 95), percentile(lat, 99)
		ops[opNames[op]] = sum
		attempted += sum.Count
		failed += sum.Failed
	}
	return ops, attempted, failed
}

// layerCounts fills the source-A per-layer metrics from an untraced window.
func layerCounts(cfg runConfig, in *instance, ws []*worker, w window, ops map[string]opSummary) map[string]float64 {
	c := w.counts
	m := map[string]float64{
		"filter.refined_per_query":     c.refinedPerQuery,
		"filter.candidate_ratio":       c.candidateRatio,
		"storage.pages_per_query":      c.pagesPerQuery,
		"storage.sim_io_ms_per_query":  c.simIOMSPerQuery,
		"server.cache_hit_ratio":       c.cacheHitRatio,
		"server.timeouts":              float64(c.timeouts),
		"server.errors":                float64(c.errors),
		"server.range_p50_ms":          ops["range"].P50MS,
		"server.batch_p50_ms":          ops["batch"].P50MS,
		"server.batch_p95_ms":          ops["batch"].P95MS,
		"server.insert_p50_ms":         ops["insert"].P50MS,
		"server.insert_p95_ms":         ops["insert"].P95MS,
		"vsdb.compactions":             float64(c.compactions),
		"vsdb.delta_objects_end":       float64(c.deltaObjectsEnd),
		"wal.records":                  float64(c.walRecords),
		"replica.max_lag":              float64(c.maxLag),
		"replica.fenced_frames":        float64(c.fencedFrames),
		"meshquery.parse_ms":           c.parseMS,
		"meshquery.voxelize_ms":        c.voxelizeMS,
		"meshquery.extract_ms":         c.extractMS,
		"meshquery.search_ms":          c.searchMS,
		"ingest.extract_ms_per_object": in.corpus.extractMSPerObject,
		"snapshot.write_ms":            in.timing.WriteMS,
		"snapshot.bytes_per_object":    float64(in.bytes) / float64(len(in.corpus.sets)),
		"snapshot.open_ms":             in.timing.ReadyMS,
	}
	for b := 0; b < 3; b++ {
		lat := latencies(ws, w.phase, func(s sample) bool { return s.op == opRange && int(s.bucket) == b })
		m[fmt.Sprintf("server.range_b%d_p50_ms", b)] = percentile(lat, 50)
	}
	if cfg.wl.cache > 0 {
		m["server.hit_p50_ms"] = percentile(latencies(ws, w.phase, func(s sample) bool { return s.op == opKNN && s.cached }), 50)
		m["server.miss_p50_ms"] = percentile(latencies(ws, w.phase, func(s sample) bool { return s.op == opKNN && !s.cached }), 50)
	}
	if ins := latencies(ws, w.phase, byOp(opInsert)); len(ins) > 0 {
		m["wal.bytes_per_insert"] = float64(w.walBytesDelta) / float64(len(ins))
		// Every auto-compaction runs inside the insert that tripped the
		// threshold, so the window's N slowest inserts — N the number of
		// compactions — are the stalls.
		if n := int(c.compactions); n > 0 && n <= len(ins) {
			var sum float64
			for _, v := range ins[len(ins)-n:] {
				sum += v
			}
			m["vsdb.compaction_stall_ms"] = sum / float64(n)
		}
	}
	return m
}

// realisedSizes is the median result size each ε bucket produced in a phase.
func realisedSizes(ws []*worker, phase uint8) *[3]int {
	var out [3]int
	for b := range out {
		var sizes []float64
		for _, w := range ws {
			for _, s := range w.log {
				if s.phase == phase && s.ok && s.op == opRange && int(s.bucket) == b {
					sizes = append(sizes, float64(s.size))
				}
			}
		}
		out[b] = int(median(sizes))
	}
	return &out
}

// runWorkload performs one complete run of one workload: set-up, request
// generation, warm-up, the timed closed loop, the correctness checks and —
// with cfg.trace — the ladder and the diagnostic loops.
func runWorkload(cfg runConfig) (res *runResult, err error) {
	root, err := os.MkdirTemp(cfg.outDir, "scratch-"+cfg.wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	logPath := filepath.Join(cfg.outDir, fmt.Sprintf("voxserve-%s.log", cfg.wl.name))
	os.Remove(logPath) // one run's log per workload; an absent file is fine

	res = &runResult{Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]metricValue{}}
	det := &res.Detail
	det.ServerLog = logPath

	// Set up cfg.sz.setups times (once when tracing, where setup_s is not
	// reported); the last instance serves the run.
	setups := cfg.sz.setups
	if cfg.trace {
		setups = 1
	}
	var in *instance
	for rep := 0; rep < setups; rep++ {
		if in != nil {
			in.srv.stop()
			os.RemoveAll(filepath.Dir(in.snapDir))
		}
		if in, err = setUp(cfg, filepath.Join(root, fmt.Sprintf("setup%d", rep)), logPath); err != nil {
			return nil, err
		}
		det.Setups = append(det.Setups, in.timing)
	}
	defer func() {
		if in.srv != nil {
			in.srv.stop()
		}
	}()
	det.Objects = len(in.corpus.sets)
	det.SnapshotBytes = in.bytes

	rs, err := generate(cfg, in.corpus)
	if err != nil {
		return nil, err
	}
	det.Calibration = rs.calib
	if len(rs.meshes) > 0 {
		sizes := make([]float64, len(rs.meshes))
		for i, m := range rs.meshes {
			sizes[i] = float64(len(m))
		}
		sorted := sortedCopy(sizes)
		det.MeshBytes = &[3]int{int(sorted[0]), int(median(sizes)), int(sorted[len(sorted)-1])}
	}

	t0 := time.Now()
	ws := newWorkers(in.srv.base, rs, cfg.sz.samples, t0)
	defer closeWorkers(ws)
	dur := func(share float64) time.Duration { return time.Duration(cfg.seconds * share * float64(time.Second)) }

	// Untraced runs spend the whole of -seconds in the timed window (plus
	// a twelfth more warming up); traced runs split it between the
	// untraced window the counts come from, the traced window and the two
	// open-loop rates.
	timed := 1.0
	if cfg.trace {
		timed = 0.25
	}
	runClosed(ws, dur(1.0/12), phaseWarm)
	win, err := measureWindow(in, ws, dur(timed), phaseTimed)
	if err != nil {
		return nil, err
	}
	det.WindowS = win.seconds
	det.Slices = win.readings(ws, cfg.wl.query)
	var failedOps int
	det.Ops, res.Attempted, failedOps = summarize(ws, phaseTimed)
	det.Layers = layerCounts(cfg, in, ws, win, det.Ops)
	if rs.calib != nil {
		det.RangeSizes = realisedSizes(ws, phaseTimed)
	}

	var tr *traceOutcome
	if cfg.trace {
		tr = runTracedPhases(cfg, ws, win, dur)
	}

	// Correctness, after the measuring is over.
	muts := timeline(ws)
	checked, mismatches := runOracle(in.corpus, rs, ws, muts)
	det.OracleChecked = checked
	if cfg.wl.wal {
		in.srv.kill()
		in.srv = nil
		srv, ready, err := startServer(cfg.voxserve, cfg.wl.args(in.snapDir, in.walDir), logPath)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		in.srv = srv
		det.Layers["wal.recover_ms"] = ms(ready)
		n, bad := checkDurability(srv.base, muts)
		det.DurabilityChecked = n
		mismatches = append(mismatches, bad...)
	}
	det.Mismatches = mismatches
	for _, w := range ws {
		det.Failures = append(det.Failures, w.failures...)
	}
	det.ConnectionsOpened = ws[0].dials.Load()
	res.Failed = failedOps + len(mismatches)
	res.Correct = len(mismatches) == 0

	if cfg.trace {
		in.srv.stop()
		in.srv = nil
		if err := runLadder(cfg, in, rs, root, tr); err != nil {
			return nil, err
		}
		det.TraceFile = tr.file
		det.Ladder = tr.ladder
		for k, v := range tr.metrics {
			det.Layers[k] = v
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{det.Layers[d.name], d.unit}
		}
		return res, nil
	}

	setupS := make([]float64, len(det.Setups))
	for i, s := range det.Setups {
		setupS[i] = s.TotalS
	}
	values := map[string]float64{
		"setup_s":       median(setupS),
		"qps":           win.qps(ws),
		"query_p50_ms":  win.percentile(ws, cfg.wl.query, 50),
		"query_p95_ms":  win.percentile(ws, cfg.wl.query, 95),
		"cpu_ms_per_op": win.cpuMSPerOp(ws),
		"rss_mb":        win.rssMB,
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return res, nil
}
