package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index/filter"
	"github.com/voxset/voxset/internal/index/xtree"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/meshquery"
	"github.com/voxset/voxset/internal/replica"
	"github.com/voxset/voxset/internal/server"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/wal"
)

const (
	ladderRequests = 1000 // the ISSUE's count; a slow workload stops earlier, on time
	// ladderCycle shifts the ids the ladder inserts far past anything the
	// timed loops can have reached.
	ladderCycle = 1 << 20
)

// traceOutcome collects what a -trace 1 run adds to the untraced window.
type traceOutcome struct {
	metrics map[string]float64
	spans   []span
	ladder  []ladderRow
	file    string
}

// ladderRow is one line of the "where the time goes" table.
type ladderRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_p50_ms"`
}

// runTracedPhases runs, against the live server, the closed loop once more
// with client-side span recording on (its throughput against the untraced
// window's is the tracing overhead) and the diagnostic open loop at the
// workload's two fixed rates.
func runTracedPhases(cfg runConfig, ws []*worker, untraced window, dur func(float64) time.Duration) *traceOutcome {
	tr := &traceOutcome{metrics: map[string]float64{}}
	okIn := func(phase uint8) float64 { return float64(len(latencies(ws, phase, anyOp))) }
	start := time.Now()
	runClosed(ws, dur(0.25), phaseTraced)
	tracedQPS := okIn(phaseTraced) / time.Since(start).Seconds()
	untracedQPS := okIn(phaseTimed) / untraced.seconds
	tr.metrics["loadgen.trace_overhead_pct"] = 100 * (untracedQPS - tracedQPS) / untracedQPS

	var late []float64
	for i, phase := range []uint8{phaseOpen1, phaseOpen2} {
		rate := cfg.wl.openRates[i]
		runOpen(ws, rate, dur(0.2), phase)
		lat := latencies(ws, phase, anyOp)
		p95 := percentile(lat, 95)
		tr.metrics[fmt.Sprintf("loadgen.open_r%d_p50_ms", i+1)] = percentile(lat, 50)
		tr.metrics[fmt.Sprintf("loadgen.open_r%d_p95_ms", i+1)] = p95
		failed := 0
		for _, w := range ws {
			for _, s := range w.log {
				if s.phase == phase {
					late = append(late, float64(s.late)/1e6)
					if !s.ok {
						failed++
					}
				}
			}
		}
		// A failed request misses any latency limit.
		ok := failed == 0 && len(lat) > 0
		for op, limit := range p95LimitMS {
			if opLat := latencies(ws, phase, byOp(op)); len(opLat) > 0 && percentile(opLat, 95) > limit {
				ok = false
			}
		}
		if ok {
			tr.metrics["loadgen.max_rate_ok"] = rate
		}
	}
	sort.Float64s(late)
	tr.metrics["loadgen.late_p99_ms"] = percentile(late, 99)
	for _, w := range ws {
		for _, s := range w.spans {
			s.ID += w.conn * 10_000_000
			if s.Parent != 0 {
				s.Parent += w.conn * 10_000_000
			}
			s.Request += w.conn * 10_000_000
			tr.spans = append(tr.spans, s)
		}
	}
	return tr
}

// selfTimes returns, per span ID, the span's duration minus the part its
// child spans cover (rungs are timed one after another, so children of one
// parent never overlap and the covered part is the sum of their durations).
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNS - s.StartNS
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// shardEngine is one shard's worth of the deeper rungs: the database, a
// filter index and a bare X-tree over the same snapshot file.
type shardEngine struct {
	db    *vsdb.DB
	ix    *filter.Index
	tree  *xtree.Tree
	store *snapshot.PagedReader // the sets, by the tree's point id
}

// ladderRig holds every in-process instance the ladder descends through.
// Each rung owns its own instance so that a mutation applied at one rung
// never changes what the next rung sees.
type ladderRig struct {
	corpus  *corpus
	rs      *requestSet
	http    *worker
	handler http.Handler
	clu     *cluster.DB // nil for the single-database workloads
	shards  []*shardEngine
	omega   []float64
	closers []func()

	t0    time.Time
	spans []span
	// Totals for dist.matching_ns.
	matchNS    int64
	matchCalls int64
	lastQuery  vectorset.Flat
	lastCands  []vectorset.Flat

	decodeMS, encodeMS []float64
}

func (l *ladderRig) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

// newLadderRig opens the rungs below http on the run's own snapshot files:
// an in-process server.Server (with its own backend), for the sharded
// workloads a bare cluster.DB, and per shard a vsdb.DB, a filter index and
// an X-tree. Write-mix instances get their own WAL directories.
func newLadderRig(cfg runConfig, in *instance, rs *requestSet, root string) (*ladderRig, error) {
	l := &ladderRig{corpus: in.corpus, rs: rs, omega: make([]float64, coverDim), t0: time.Now()}
	ok := false
	defer func() {
		if !ok {
			l.close()
		}
	}()
	wl := cfg.wl
	walDir := func(name string) string {
		if !wl.wal {
			return ""
		}
		return filepath.Join(root, "ladder-wal-"+name)
	}
	openCluster := func(name string, tr *storage.Tracker) (*cluster.DB, error) {
		ccfg := cluster.Config{Tracker: tr, WALDir: walDir(name)}
		if wl.wal {
			ccfg.Replicas = 1
		}
		c, err := cluster.LoadDir(in.snapDir, ccfg)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, func() { c.Close() })
		return c, nil
	}
	sharded := wl.shards > 1

	// server rung.
	var tr storage.Tracker
	scfg := server.Config{Tracker: &tr, CacheSize: wl.cache}
	if sharded {
		c, err := openCluster("server", &tr)
		if err != nil {
			return nil, err
		}
		scfg.Cluster = c
	} else {
		db, err := vsdb.OpenFile(singleFile(in.snapDir), vsdb.LoadOptions{Tracker: &tr})
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, func() { db.Close() })
		scfg.DB = db
	}
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	l.handler = srv.Handler()

	// cluster rung.
	if sharded {
		if l.clu, err = openCluster("cluster", nil); err != nil {
			return nil, err
		}
	}

	// vsdb, filter, xtree and dist rungs, per shard.
	for i := 0; i < wl.shards; i++ {
		opt := vsdb.LoadOptions{}
		if wl.wal {
			if err := os.MkdirAll(walDir("vsdb"), 0o755); err != nil {
				return nil, err
			}
			opt.WALPath = filepath.Join(walDir("vsdb"), wal.ShardLogName(i))
		}
		db, err := vsdb.OpenFile(filepath.Join(in.snapDir, snapshot.ShardSnapshotName(i)), opt)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, func() { db.Close() })
		// The filter and X-tree rungs sit on the same memory-mapped pages
		// the database serves from, built the way vsdb.OpenFile builds them.
		rd, err := snapshot.OpenPaged(filepath.Join(in.snapDir, snapshot.ShardSnapshotName(i)), snapshot.PagedReaderOptions{})
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, func() { rd.Close() })
		if err := rd.CheckCentroids(); err != nil {
			return nil, err
		}
		se := &shardEngine{db: db, store: rd}
		ids := make([]int, rd.Len())
		points := make([]int, rd.Len())
		for j, id := range rd.IDs() {
			ids[j], points[j] = int(id), j
		}
		fcfg := filter.Config{K: coverK, Dim: coverDim, Ground: dist.L2, Weight: dist.WeightNormTo(l.omega), Omega: l.omega, FastL2: true}
		if se.ix, err = filter.NewBulkStore(fcfg, rd, ids, filter.StoreBuildOptions{}); err != nil {
			return nil, err
		}
		se.tree = xtree.BulkLoad(rd.Centroids(), points, xtree.Config{})
		l.shards = append(l.shards, se)
	}
	ok = true
	return l, nil
}

// timed records one span under parent and returns its id.
func (l *ladderRig) timed(name string, req, parent int, fn func()) int {
	start := time.Now()
	fn()
	end := time.Now()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, Request: req, ID: id, Parent: parent,
		StartNS: int64(start.Sub(l.t0)), EndNS: int64(end.Sub(l.t0))})
	return id
}

// slowest runs fn once per shard, one after another, and records a single
// span as long as the slowest shard took: a scatter waits for its slowest
// part. It returns the span id.
func (l *ladderRig) slowest(name string, req, parent int, fn func(shard int, se *shardEngine)) int {
	var worst time.Duration
	for i, se := range l.shards {
		start := time.Now()
		fn(i, se)
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	end := time.Now()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, Request: req, ID: id, Parent: parent,
		StartNS: int64(end.Add(-worst).Sub(l.t0)), EndNS: int64(end.Sub(l.t0))})
	return id
}

// descend runs one request down the ladder.
func (l *ladderRig) descend(req int, r *request) (ok bool) {
	method, path, body := l.http.wire(r, ladderCycle)
	id := r.id + ladderCycle*l.rs.stride

	// http: the real round trip to the child voxserve.
	httpSpan := l.timed("http", req, 0, func() { ok = l.http.send(method, path, body, nil) })
	if !ok {
		return false
	}

	// server: the same bytes through Server.Handler() in-process.
	rec := httptest.NewRecorder()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	hreq := httptest.NewRequest(method, path, rd)
	serverSpan := l.timed("server", req, httpSpan, func() { l.handler.ServeHTTP(rec, hreq) })
	if rec.Code/100 != 2 {
		return false
	}
	l.codecTimes(r, body, rec.Body.Bytes())
	if (r.op == opKNN || r.op == opRange) && bytes.Contains(rec.Body.Bytes(), cachedTrue) {
		return true // a cache hit ends at the server: nothing below ran
	}

	query := r.set
	if len(r.ids) == 1 {
		query = l.corpus.sets[r.ids[0]]
	}
	parent := serverSpan
	if r.op == opMesh {
		var ex meshquery.Result
		var err error
		l.timed("meshquery", req, serverSpan, func() {
			var m *mesh.Mesh
			if m, err = mesh.ReadSTL(bytes.NewReader(l.rs.meshes[r.mesh])); err == nil {
				ex, err = meshquery.Extract(m, meshquery.Config{RCover: coverRes, Covers: coverK})
			}
		})
		if err != nil {
			return false
		}
		query = ex.Set
	}
	var batch [][][]float64
	if r.op == opBatch {
		for _, qid := range r.ids {
			batch = append(batch, l.corpus.sets[qid])
		}
	}

	// cluster: the scatter-gather coordinator.
	if l.clu != nil {
		var err error
		parent = l.timed("cluster", req, parent, func() {
			switch r.op {
			case opKNN:
				_, err = l.clu.KNN(query, knnK)
			case opRange:
				_, err = l.clu.Range(query, r.eps)
			case opBatch:
				_, err = l.clu.KNNBatch(batch, knnK)
			case opInsert:
				err = l.clu.Insert(id, r.set)
			case opDelete:
				err = l.clu.Delete(id)
			case opObject:
				l.clu.Get(id)
			}
		})
		if err != nil {
			return false
		}
	}

	// vsdb: one shard's database; mutations and reads by id touch only
	// the owning shard.
	owner := cluster.Route(id, len(l.shards))
	var err error
	vsdbSpan := l.slowest("vsdb", req, parent, func(i int, se *shardEngine) {
		switch r.op {
		case opKNN, opMesh:
			se.db.KNN(query, knnK)
		case opRange:
			se.db.Range(query, r.eps)
		case opBatch:
			se.db.KNNBatch(batch, knnK)
		case opInsert:
			if i == owner {
				err = se.db.Insert(id, r.set)
			}
		case opDelete:
			if i == owner {
				err = se.db.Delete(id)
			}
		case opObject:
			if i == owner {
				se.db.Get(id)
			}
		}
	})
	if err != nil {
		return false
	}
	if r.op == opInsert || r.op == opDelete || r.op == opObject {
		return true
	}

	// filter: the filter/refinement index over the snapshot's sets.
	flat := vectorset.FlatFromRows(query)
	refined := make([]int64, len(l.shards))
	filterSpan := l.slowest("filter", req, vsdbSpan, func(i int, se *shardEngine) {
		before := se.ix.Refinements()
		switch r.op {
		case opKNN, opMesh:
			se.ix.KNNFlat(flat, knnK)
		case opRange:
			se.ix.RangeFlat(flat, r.eps)
		case opBatch:
			for _, q := range batch {
				se.ix.KNNFlat(vectorset.FlatFromRows(q), knnK)
			}
		}
		refined[i] = se.ix.Refinements() - before
	})
	if r.op != opKNN && r.op != opMesh {
		return true
	}

	// xtree: the centroid ranking, pulled as far as the filter pulled it
	// (every refined candidate plus the one that ended the walk).
	cq := flat.Centroid(coverK, l.omega)
	cands := make([][]vectorset.Flat, len(l.shards))
	l.slowest("xtree", req, filterSpan, func(i int, se *shardEngine) {
		rk := se.tree.NewRanking(cq)
		for n := int64(0); n <= refined[i]; n++ {
			nb, more := rk.Next()
			if !more {
				break
			}
			if n < refined[i] {
				cands[i] = append(cands[i], se.store.At(nb.ID))
			}
		}
	})

	// dist: the minimal matching distance of the query to each candidate.
	ws := dist.GetWorkspace()
	defer dist.PutWorkspace(ws)
	start := time.Now()
	l.slowest("dist", req, filterSpan, func(i int, _ *shardEngine) {
		for _, cand := range cands[i] {
			ws.MatchingDistanceFlat(flat, cand, l.omega)
		}
	})
	l.matchNS += int64(time.Since(start))
	for _, c := range cands {
		l.matchCalls += int64(len(c))
	}
	l.lastQuery, l.lastCands = flat, cands[0]
	return true
}

// codecTimes times the server's JSON work on this request in isolation:
// decoding the body into server.QueryRequest and encoding the answer as
// server.QueryResponse.
func (l *ladderRig) codecTimes(r *request, body, answer []byte) {
	if r.op != opKNN && r.op != opRange {
		return
	}
	var q server.QueryRequest
	start := time.Now()
	if json.Unmarshal(body, &q) != nil {
		return
	}
	l.decodeMS = append(l.decodeMS, ms(time.Since(start)))
	var resp server.QueryResponse
	if json.Unmarshal(answer, &resp) != nil {
		return
	}
	start = time.Now()
	if _, err := json.Marshal(resp); err != nil {
		return
	}
	l.encodeMS = append(l.encodeMS, ms(time.Since(start)))
}

// layerOf maps a ladder span name to the per-layer metric its self time
// feeds.
var layerOf = map[string]string{
	"http":      "http.self_ms",
	"server":    "server.self_ms",
	"cluster":   "cluster.self_ms",
	"vsdb":      "vsdb.self_ms",
	"meshquery": "meshquery.self_ms",
	"filter":    "filter.self_ms",
	"xtree":     "filter.rank_ms",
	"dist":      "filter.refine_ms",
}

var ladderOrder = []string{"http", "server", "cluster", "meshquery", "vsdb", "filter", "xtree", "dist"}

// runLadder replays the first requests of connection 0's list, one at a
// time, at successively deeper public entry points — a fresh child
// voxserve, then the in-process rungs — and turns the spans into per-layer
// self times. It also takes the micro-timings that have no rung, and writes
// every span of the run to bench/out/trace-<workload>.json.
func runLadder(cfg runConfig, in *instance, rs *requestSet, root string, tr *traceOutcome) error {
	l, err := newLadderRig(cfg, in, rs, root)
	if err != nil {
		return fmt.Errorf("opening the ladder's in-process instances: %w", err)
	}
	defer l.close()
	ladderWAL := filepath.Join(root, "ladder-wal-http")
	srv, _, err := startServer(cfg.voxserve, cfg.wl.args(in.snapDir, ladderWAL), filepath.Join(cfg.outDir, "voxserve-"+cfg.wl.name+".log"))
	if err != nil {
		return err
	}
	defer srv.stop()
	probe := &requestSet{stride: rs.stride}
	probe.lists[0] = rs.lists[0]
	l.http = newWorkers(srv.base, probe, 0, l.t0)[0]
	defer closeWorkers([]*worker{l.http})

	// The ladder gets a quarter of -seconds; a workload too slow for
	// 1 000 requests in that stops on time instead.
	deadline := time.Now().Add(time.Duration(cfg.seconds * 0.25 * float64(time.Second)))
	n := 0
	for ; n < ladderRequests && n < len(rs.lists[0]) && time.Now().Before(deadline); n++ {
		if !l.descend(n, &rs.lists[0][n]) {
			return fmt.Errorf("ladder request %d (%s) failed", n, opNames[rs.lists[0][n].op])
		}
	}

	self := selfTimes(l.spans)
	byLayer := map[string][]float64{}
	var httpDur []float64
	for _, s := range l.spans {
		byLayer[s.Name] = append(byLayer[s.Name], float64(self[s.ID])/1e6)
		if s.Name == "http" {
			httpDur = append(httpDur, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	var sum float64
	for _, name := range ladderOrder {
		vals := byLayer[name]
		if len(vals) == 0 {
			continue
		}
		m := median(vals)
		tr.metrics[layerOf[name]] = m
		tr.ladder = append(tr.ladder, ladderRow{Layer: name, Spans: len(vals), SelfMS: m})
		sum += m
	}
	tr.metrics["ladder.http_p50_ms"] = median(httpDur)
	tr.metrics["ladder.self_sum_ms"] = sum
	tr.metrics["server.decode_ms"] = median(l.decodeMS)
	tr.metrics["server.encode_ms"] = median(l.encodeMS)
	if l.matchCalls > 0 {
		tr.metrics["dist.matching_ns"] = float64(l.matchNS) / float64(l.matchCalls)
		if len(l.lastCands) > 0 {
			ws := dist.GetWorkspace()
			allocs := testing.AllocsPerRun(10, func() {
				for _, c := range l.lastCands {
					ws.MatchingDistanceFlat(l.lastQuery, c, l.omega)
				}
			})
			dist.PutWorkspace(ws)
			tr.metrics["dist.matching_allocs"] = allocs / float64(len(l.lastCands))
		}
	}
	if cfg.wl.wal {
		if err := writePathTimings(in.corpus, root, tr.metrics); err != nil {
			return err
		}
	}

	tr.spans = append(tr.spans, l.spans...)
	tr.file = filepath.Join(cfg.outDir, "trace-"+cfg.wl.name+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{cfg.wl.name, cfg.seed,
		"ladder spans (http, server, ...) are separate executions of the same request at successively deeper entry points, parent = the rung above; client.* spans are the traced closed loop (ids offset by 10 000 000 per connection)",
		tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(tr.file, data, 0o644)
}

// writePathTimings times the pieces of an acknowledged insert that the
// ladder cannot separate, each through its public entry point: the WAL
// append with and without fsync, the replication frame encode, the
// follower's ship-to-applied delay, and the database insert and compaction.
func writePathTimings(c *corpus, root string, out map[string]float64) error {
	const n = 200
	omega := make([]float64, coverDim)
	wcfg := wal.Config{Dim: coverDim, MaxCard: coverK, Omega: omega}
	rec := func(i int) wal.Record {
		return wal.Record{Op: wal.OpInsert, ID: uint64(insertIDBase + i), Set: c.sets[i%len(c.sets)]}
	}
	for _, v := range []struct {
		metric string
		noSync bool
	}{{"wal.append_ms", false}, {"wal.append_nosync_ms", true}} {
		f, _, err := wal.OpenFile(filepath.Join(root, v.metric+".wal"), wcfg, wal.FileOptions{NoSync: v.noSync})
		if err != nil {
			return err
		}
		times := make([]float64, n)
		for i := range times {
			start := time.Now()
			if _, err := f.Append(rec(i)); err != nil {
				f.Close()
				return err
			}
			times[i] = ms(time.Since(start))
		}
		if err := f.Close(); err != nil {
			return err
		}
		out[v.metric] = median(times)
	}

	frames := make([][]byte, n)
	encode := make([]float64, n)
	for i := range frames {
		r := rec(i)
		r.Seq = uint64(i + 1)
		start := time.Now()
		frame, err := replica.EncodeFrame(replica.Ship{Term: 1, Rec: r})
		if err != nil {
			return err
		}
		encode[i] = float64(time.Since(start)) / 1e3
		frames[i] = frame
	}
	out["replica.encode_us"] = median(encode)

	standby, err := vsdb.Open(vsdb.Config{Dim: coverDim, MaxCard: coverK})
	if err != nil {
		return err
	}
	defer standby.Close()
	fol := replica.NewFollower(0, standby.ApplyRecord)
	defer fol.Stop()
	apply := make([]float64, n)
	for i, frame := range frames {
		start := time.Now()
		if err := fol.Ship(frame); err != nil {
			return err
		}
		for fol.Applied() < uint64(i+1) {
			if err := fol.Err(); err != nil {
				return err
			}
			if time.Since(start) > 5*time.Second {
				return fmt.Errorf("follower did not apply record %d", i+1)
			}
			runtime.Gosched()
		}
		apply[i] = ms(time.Since(start))
	}
	out["replica.apply_ms"] = median(apply)

	db, err := openInProcess(c)
	if err != nil {
		return err
	}
	defer db.Close()
	insert := make([]float64, n)
	for i := range insert {
		r := rec(i)
		start := time.Now()
		if err := db.Insert(r.ID, r.Set); err != nil {
			return err
		}
		insert[i] = ms(time.Since(start))
	}
	out["vsdb.insert_ms"] = median(insert)
	start := time.Now()
	db.Compact()
	out["vsdb.compact_ms"] = ms(time.Since(start))
	return nil
}
