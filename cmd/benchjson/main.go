// Command benchjson is the standing performance harness (ROADMAP "perf
// trajectory"): it runs the ingest / k-nn / shard-scaling / allocation
// measurements over a deterministic synthetic corpus and emits one JSON
// document (BENCH_<pr>.json) so every PR appends a comparable data
// point. The corpus, query set and iteration counts are fixed by flags
// and a constant seed — two runs on the same machine measure the same
// work, so ratios between two checkouts are meaningful.
//
//	go run ./cmd/benchjson -pr 6 -out BENCH_6.json
//	go run ./cmd/benchjson -quick -out /tmp/smoke.json   # CI smoke
//
// The emitted document is schema-checked before the process exits:
// a harness that silently stops measuring fails loudly instead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index/sketch"
	"github.com/voxset/voxset/internal/recall"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vsdb"
)

// seed fixes the synthetic corpus across runs and checkouts.
const seed = 0x5eed6

// Doc is the emitted JSON document.
type Doc struct {
	Schema string `json:"schema"` // "voxset-bench/1"
	PR     int    `json:"pr"`
	Date   string `json:"date"`
	Go     string `json:"go"`
	CPUs   int    `json:"cpus"`

	Config ConfigDoc  `json:"config"`
	Ingest IngestDoc  `json:"ingest"`
	KNN    KNNDoc     `json:"knn"`
	Allocs AllocsDoc  `json:"allocs"`
	Batch  *BatchDoc  `json:"batch,omitempty"`
	Mmap   *MmapDoc   `json:"mmap,omitempty"`
	Approx *ApproxDoc `json:"approx,omitempty"`
	Shards []ShardDoc `json:"shards"`
	// Replication measures the per-shard replica tier (absent when the
	// checkout predates it).
	Replication *ReplicationDoc `json:"replication,omitempty"`
	// Degraded measures scan-to-CAD retrieval from damaged rescans
	// (absent when the checkout predates the degrade generators).
	Degraded *DegradedDoc `json:"degraded,omitempty"`
	Baseline *Doc         `json:"baseline,omitempty"`
}

// ConfigDoc records the workload shape the numbers were measured under.
type ConfigDoc struct {
	Objects int `json:"objects"`
	Dim     int `json:"dim"`
	MaxCard int `json:"max_card"`
	Queries int `json:"queries"`
	K       int `json:"k"`
	Rounds  int `json:"rounds"`
}

// IngestDoc is the bulk-load measurement: one vsdb.BulkInsert of the
// whole corpus (centroids, STR bulk load, record serialization).
type IngestDoc struct {
	MSPerObject float64 `json:"ms_per_object"`
	TotalMS     float64 `json:"total_ms"`
}

// KNNDoc is the exact k-nn latency distribution over the query set.
type KNNDoc struct {
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// AllocsDoc pins the hot-path allocation counts.
type AllocsDoc struct {
	MatchingPerOp float64 `json:"matching_per_op"`
	KNNPerQuery   float64 `json:"knn_per_query"`
	DecodePerSet  float64 `json:"decode_per_set"`
}

// BatchDoc compares the batched query path against N sequential calls
// on the same corpus (absent when the checkout predates KNNBatch).
type BatchDoc struct {
	SequentialQPS float64 `json:"sequential_qps"`
	BatchQPS      float64 `json:"batch_qps"`
	Speedup       float64 `json:"speedup"`
}

// MmapDoc measures the VXSNAP02 zero-copy serving path: cold open of a
// paged snapshot (no decode, lazy CRCs), the per-set allocation count of
// reads that alias the mapping, and exact k-nn latency over the mapped
// base (absent when the checkout predates the paged layout).
type MmapDoc struct {
	OpenMS         float64 `json:"open_ms"`
	AtAllocsPerSet float64 `json:"at_allocs_per_set"`
	KNNP50MS       float64 `json:"knn_p50_ms"`
}

// ApproxDoc measures the approximate sketch candidate tier (DESIGN.md
// §12) on its own larger corpus: exact vs approximate k-nn p50, the
// recall@k of the approximate answers against the exact oracle, the
// candidate volume the tier refines, and the speed-vs-recall curve over
// candidate budget factors (absent when the checkout predates the tier).
type ApproxDoc struct {
	Objects            int              `json:"objects"`
	K                  int              `json:"k"`
	Bits               int              `json:"bits"`
	Active             int              `json:"active"`
	ExactP50MS         float64          `json:"exact_p50_ms"`
	ApproxP50MS        float64          `json:"approx_p50_ms"`
	Speedup            float64          `json:"speedup"`
	RecallAt10         float64          `json:"recall_at_10"`
	CandidatesPerQuery float64          `json:"candidates_per_query"`
	Curve              []ApproxPointDoc `json:"curve"`
}

// ApproxPointDoc is one point of the speed-vs-recall curve: the tier at
// one candidate budget factor (budget = max(k·factor, MinCandidates)).
type ApproxPointDoc struct {
	KNNFactor          int     `json:"knn_factor"`
	RecallAt10         float64 `json:"recall_at_10"`
	ApproxP50MS        float64 `json:"approx_p50_ms"`
	Speedup            float64 `json:"speedup"`
	CandidatesPerQuery float64 `json:"candidates_per_query"`
}

// ReplicationDoc measures the per-shard replica tier (DESIGN.md §13) on
// a replicated cluster over the main corpus: k-nn p50 with follower
// reads on (queries round-robin across primary and caught-up
// followers), the time from killing a primary to a promoted follower
// serving (mean across shards), and the mean shipping lag sampled
// behind a sustained insert stream (records a follower trails the
// primary's epoch by; 0 means shipping keeps pace with acknowledgement).
type ReplicationDoc struct {
	Replicas          int     `json:"replicas"`
	FollowerReadP50MS float64 `json:"follower_read_p50_ms"`
	PromotionMS       float64 `json:"promotion_ms"`
	SteadyLagRecords  float64 `json:"steady_lag_records"`
}

// ShardDoc is one row of the scatter-gather scaling measurement.
type ShardDoc struct {
	Shards int     `json:"shards"`
	P50MS  float64 `json:"knn_p50_ms"`
}

func main() {
	var (
		pr       = flag.Int("pr", 6, "PR number stamped into the document")
		out      = flag.String("out", "", "output path (default stdout)")
		quick    = flag.Bool("quick", false, "small corpus / few rounds (CI smoke)")
		baseline = flag.String("baseline", "", "path of a previous run to embed under \"baseline\"")
	)
	flag.Parse()

	cfg := ConfigDoc{Objects: 4096, Dim: 6, MaxCard: 7, Queries: 32, K: 10, Rounds: 5}
	if *quick {
		cfg = ConfigDoc{Objects: 512, Dim: 6, MaxCard: 7, Queries: 8, K: 10, Rounds: 2}
	}

	doc := run(cfg, *quick)
	doc.Schema = "voxset-bench/1"
	doc.PR = *pr
	doc.Date = time.Now().UTC().Format(time.RFC3339)
	doc.Go = runtime.Version()
	doc.CPUs = runtime.NumCPU()

	if *baseline != "" {
		prev, err := readDoc(*baseline)
		if err != nil {
			fatal("reading baseline: %v", err)
		}
		prev.Baseline = nil // one level of history is enough
		doc.Baseline = prev
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("encoding: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal("writing %s: %v", *out, err)
	}

	// Self-check: decode what was emitted and validate the schema, so a
	// harness that stops measuring cannot silently produce an empty file.
	var back Doc
	if err := json.Unmarshal(buf, &back); err != nil {
		fatal("schema: emitted document does not decode: %v", err)
	}
	if err := validate(&back); err != nil {
		fatal("schema: %v", err)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

func readDoc(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// validate enforces the schema contract bench-smoke relies on.
func validate(d *Doc) error {
	switch {
	case d.Schema != "voxset-bench/1":
		return fmt.Errorf("schema field %q", d.Schema)
	case d.Config.Objects <= 0 || d.Config.Dim <= 0 || d.Config.MaxCard <= 0:
		return fmt.Errorf("empty config")
	case d.Ingest.MSPerObject <= 0:
		return fmt.Errorf("ingest not measured")
	case d.KNN.P50MS <= 0 || d.KNN.P99MS < d.KNN.P50MS:
		return fmt.Errorf("knn percentiles implausible (p50=%v p99=%v)", d.KNN.P50MS, d.KNN.P99MS)
	case len(d.Shards) == 0:
		return fmt.Errorf("shard scaling not measured")
	case d.Approx == nil:
		return fmt.Errorf("approximate tier not measured")
	case d.Approx.RecallAt10 <= 0 || d.Approx.RecallAt10 > 1:
		return fmt.Errorf("approx recall@10 implausible (%v)", d.Approx.RecallAt10)
	case d.Approx.ApproxP50MS <= 0 || d.Approx.ExactP50MS <= 0:
		return fmt.Errorf("approx latencies not measured")
	case len(d.Approx.Curve) == 0:
		return fmt.Errorf("approx speed-vs-recall curve not measured")
	case d.Replication == nil:
		return fmt.Errorf("replication tier not measured")
	case d.Replication.FollowerReadP50MS <= 0 || d.Replication.PromotionMS <= 0:
		return fmt.Errorf("replication latencies implausible (read p50=%v promotion=%v)",
			d.Replication.FollowerReadP50MS, d.Replication.PromotionMS)
	case d.Degraded == nil:
		return fmt.Errorf("degraded retrieval not measured")
	case d.Degraded.Parts <= 0 || len(d.Degraded.Rows) == 0:
		return fmt.Errorf("degraded section empty (parts=%d rows=%d)", d.Degraded.Parts, len(d.Degraded.Rows))
	}
	for _, row := range d.Degraded.Rows {
		if row.Kind == "" || row.RecallFullAt10 < 0 || row.RecallFullAt10 > 1 ||
			row.RecallPartialAt10 < 0 || row.RecallPartialAt10 > 1 {
			return fmt.Errorf("degraded row implausible: %+v", row)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Corpus

// corpus builds the deterministic synthetic object set: cardinalities
// cycle 1..MaxCard, components are uniform in [0, 10) — the value range
// of normalized cover features.
func corpus(cfg ConfigDoc) (ids []uint64, sets [][][]float64, queries [][][]float64) {
	rng := rand.New(rand.NewSource(seed))
	makeSet := func() [][]float64 {
		card := 1 + rng.Intn(cfg.MaxCard)
		set := make([][]float64, card)
		for i := range set {
			v := make([]float64, cfg.Dim)
			for j := range v {
				v[j] = rng.Float64() * 10
			}
			set[i] = v
		}
		return set
	}
	ids = make([]uint64, cfg.Objects)
	sets = make([][][]float64, cfg.Objects)
	for i := range sets {
		ids[i] = uint64(i + 1)
		sets[i] = makeSet()
	}
	queries = make([][][]float64, cfg.Queries)
	for i := range queries {
		queries[i] = makeSet()
	}
	return ids, sets, queries
}

// familyCorpus builds the corpus the approximate tier is measured on:
// part families, as in the paper's CAD catalogs — each family is a
// prototype set with uniform components in [0, 10), and members jitter
// every component with Gaussian noise. A query's true neighbors are its
// family, which is the neighborhood structure similarity search exists
// to exploit; on the structureless uniform corpus above, the exact
// top-k is barely closer than random objects and recall@k would
// measure noise rather than the tier.
func familyCorpus(cfg ConfigDoc) (ids []uint64, sets [][][]float64, queries [][][]float64) {
	const jitter = 1.2
	rng := rand.New(rand.NewSource(seed))
	families := make([][][]float64, cfg.Objects/100+1)
	for f := range families {
		card := 1 + rng.Intn(cfg.MaxCard)
		set := make([][]float64, card)
		for i := range set {
			v := make([]float64, cfg.Dim)
			for j := range v {
				v[j] = rng.Float64() * 10
			}
			set[i] = v
		}
		families[f] = set
	}
	sample := func() [][]float64 {
		base := families[rng.Intn(len(families))]
		set := make([][]float64, len(base))
		for i, bv := range base {
			v := make([]float64, cfg.Dim)
			for j := range v {
				v[j] = bv[j] + rng.NormFloat64()*jitter
			}
			set[i] = v
		}
		return set
	}
	ids = make([]uint64, cfg.Objects)
	sets = make([][][]float64, cfg.Objects)
	for i := range sets {
		ids[i] = uint64(i + 1)
		sets[i] = sample()
	}
	queries = make([][][]float64, cfg.Queries)
	for i := range queries {
		queries[i] = sample()
	}
	return ids, sets, queries
}

func openDB(cfg ConfigDoc) *vsdb.DB {
	db, err := vsdb.Open(vsdb.Config{Dim: cfg.Dim, MaxCard: cfg.MaxCard, Workers: 1})
	if err != nil {
		fatal("open: %v", err)
	}
	return db
}

// ---------------------------------------------------------------------------
// Measurements

func run(cfg ConfigDoc, quick bool) *Doc {
	ids, sets, queries := corpus(cfg)
	doc := &Doc{Config: cfg}

	// Ingest: best of Rounds bulk loads into a fresh database (best-of
	// suppresses GC noise; the loaded database of the last round serves
	// the query measurements).
	var db *vsdb.DB
	best := time.Duration(1<<62 - 1)
	for r := 0; r < cfg.Rounds; r++ {
		db = openDB(cfg)
		start := time.Now()
		if err := db.BulkInsert(ids, sets); err != nil {
			fatal("bulk insert: %v", err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	doc.Ingest = IngestDoc{
		MSPerObject: ms(best) / float64(cfg.Objects),
		TotalMS:     ms(best),
	}

	// KNN latency distribution: every query measured Rounds times, after
	// one untimed warmup pass.
	for _, q := range queries {
		db.KNN(q, cfg.K)
	}
	var lats []float64
	for r := 0; r < cfg.Rounds; r++ {
		for _, q := range queries {
			start := time.Now()
			db.KNN(q, cfg.K)
			lats = append(lats, ms(time.Since(start)))
		}
	}
	doc.KNN = KNNDoc{
		P50MS:  percentile(lats, 0.50),
		P99MS:  percentile(lats, 0.99),
		MeanMS: mean(lats),
	}

	// Allocations: the matching kernel on a held workspace, one full k-nn
	// query, and one vector-set record decode.
	ws := dist.GetWorkspace()
	x, y := sets[0], sets[1%len(sets)]
	doc.Allocs.MatchingPerOp = testing.AllocsPerRun(100, func() {
		ws.MatchingDistance(x, y, dist.L2, dist.WeightNorm)
	})
	dist.PutWorkspace(ws)
	q := queries[0]
	doc.Allocs.KNNPerQuery = testing.AllocsPerRun(10, func() { db.KNN(q, cfg.K) })
	doc.Allocs.DecodePerSet = decodeAllocs(cfg)

	// Batched query path vs the same queries issued sequentially.
	doc.Batch = measureBatch(db, queries, cfg)

	// VXSNAP02 serving path: cold open, aliasing reads, mapped k-nn.
	doc.Mmap = measureMmap(db, queries, cfg)

	// Approximate sketch tier: recall and speedup on a larger corpus.
	doc.Approx = measureApprox(cfg, quick)

	// Replica tier: follower-read latency, promotion time, shipping lag.
	doc.Replication = measureReplication(ids, sets, queries, cfg)

	// Scan-to-CAD retrieval: recall from damaged rescans, full vs partial.
	doc.Degraded = measureDegraded(quick)

	// Shard scaling: scatter-gather k-nn p50 at 1 and 4 shards.
	for _, n := range []int{1, 4} {
		c, err := cluster.New(cluster.Config{
			Shards: n, Dim: cfg.Dim, MaxCard: cfg.MaxCard, Workers: 1,
		})
		if err != nil {
			fatal("cluster: %v", err)
		}
		if err := c.BulkInsert(ids, sets); err != nil {
			fatal("cluster bulk insert: %v", err)
		}
		for _, q := range queries {
			if _, err := c.KNN(q, cfg.K); err != nil {
				fatal("cluster knn: %v", err)
			}
		}
		var sl []float64
		for r := 0; r < cfg.Rounds; r++ {
			for _, q := range queries {
				start := time.Now()
				if _, err := c.KNN(q, cfg.K); err != nil {
					fatal("cluster knn: %v", err)
				}
				sl = append(sl, ms(time.Since(start)))
			}
		}
		doc.Shards = append(doc.Shards, ShardDoc{Shards: n, P50MS: percentile(sl, 0.50)})
	}
	return doc
}

// decodeAllocs measures the decode path vsdb actually uses on load —
// the streaming Decoder.NextFlat, one flat buffer per object — not the
// retired per-vector Set.ReadFrom (which this gauge exercised through
// PR 6, reporting 5 allocs/set for a decoder the hot path no longer
// runs).
func decodeAllocs(cfg ConfigDoc) float64 {
	const objects = 256
	rng := rand.New(rand.NewSource(seed + 1))
	sdb := &snapshot.DB{Dim: cfg.Dim, MaxCard: cfg.MaxCard, Omega: make([]float64, cfg.Dim)}
	for i := 0; i < objects; i++ {
		set := make([][]float64, cfg.MaxCard)
		for j := range set {
			set[j] = make([]float64, cfg.Dim)
			for k := range set[j] {
				set[j][k] = rng.Float64() * 10
			}
		}
		sdb.IDs = append(sdb.IDs, uint64(i+1))
		sdb.Sets = append(sdb.Sets, set)
	}
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, sdb); err != nil {
		fatal("encode: %v", err)
	}
	d, err := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()), snapshot.DecodeOptions{})
	if err != nil {
		fatal("decoder: %v", err)
	}
	return testing.AllocsPerRun(objects/2, func() {
		if _, _, err := d.NextFlat(); err != nil {
			fatal("decode: %v", err)
		}
	})
}

// mmapSink keeps the aliasing reads from being optimized away.
var mmapSink float64

// measureMmap converts the loaded corpus to a VXSNAP02 paged snapshot
// and measures the zero-copy serving path against it.
func measureMmap(db *vsdb.DB, queries [][][]float64, cfg ConfigDoc) *MmapDoc {
	dir, err := os.MkdirTemp("", "voxset-bench-mmap")
	if err != nil {
		fatal("mmap tmp: %v", err)
	}
	defer os.RemoveAll(dir)
	v1 := filepath.Join(dir, "corpus.vsnap")
	v2 := filepath.Join(dir, "corpus.v2.vsnap")
	if err := db.SaveFile(v1); err != nil {
		fatal("mmap save: %v", err)
	}
	if err := snapshot.ConvertFile(v1, v2, 0); err != nil {
		fatal("mmap convert: %v", err)
	}

	m := &MmapDoc{}

	// Cold open: sniff + map + header/offsets validation, no decode.
	best := time.Duration(1<<62 - 1)
	for r := 0; r < cfg.Rounds; r++ {
		start := time.Now()
		mdb, err := vsdb.OpenFile(v2, vsdb.LoadOptions{Workers: 1})
		if err != nil {
			fatal("mmap open: %v", err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		mdb.Close()
	}
	m.OpenMS = ms(best)

	// Aliasing reads: At returns a Flat view into the mapping.
	r, err := snapshot.OpenPaged(v2, snapshot.PagedReaderOptions{})
	if err != nil {
		fatal("mmap reader: %v", err)
	}
	i := 0
	m.AtAllocsPerSet = testing.AllocsPerRun(100, func() {
		f := r.At(i % r.Len())
		mmapSink += f.Data[0]
		i++
	})
	r.Close()

	// Exact k-nn over the mapped base.
	mdb, err := vsdb.OpenFile(v2, vsdb.LoadOptions{Workers: 1})
	if err != nil {
		fatal("mmap open: %v", err)
	}
	defer mdb.Close()
	for _, q := range queries {
		mdb.KNN(q, cfg.K)
	}
	var lats []float64
	for rd := 0; rd < cfg.Rounds; rd++ {
		for _, q := range queries {
			start := time.Now()
			mdb.KNN(q, cfg.K)
			lats = append(lats, ms(time.Since(start)))
		}
	}
	m.KNNP50MS = percentile(lats, 0.50)
	return m
}

// measureApprox builds a larger family-structured corpus (the exact
// scan cost at the main corpus size is too small for the tier to
// matter, and the tier's job is finding real neighborhoods — see
// familyCorpus), persists it once as a paged snapshot with the sketch
// table in its tail, and reopens it at each candidate budget factor —
// every point of the curve adopts the same persisted sketches, so only
// the query path varies. Recall and latency come from the
// internal/recall harness: the same queries run through both engines
// side by side.
func measureApprox(cfg ConfigDoc, quick bool) *ApproxDoc {
	objects := 100_000
	rounds := 3
	if quick {
		objects, rounds = 4000, 1
	}
	acfg := cfg
	acfg.Objects = objects
	ids, sets, queries := familyCorpus(acfg)

	db, err := vsdb.Open(vsdb.Config{
		Dim: cfg.Dim, MaxCard: cfg.MaxCard, Workers: 1, Approx: &vsdb.ApproxOptions{},
	})
	if err != nil {
		fatal("approx open: %v", err)
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		fatal("approx bulk insert: %v", err)
	}
	dir, err := os.MkdirTemp("", "voxset-bench-approx")
	if err != nil {
		fatal("approx tmp: %v", err)
	}
	defer os.RemoveAll(dir)
	v1 := filepath.Join(dir, "approx.vsnap")
	v2 := filepath.Join(dir, "approx.v2.vsnap")
	if err := db.SaveFile(v1); err != nil {
		fatal("approx save: %v", err)
	}
	if err := snapshot.ConvertFile(v1, v2, 0); err != nil {
		fatal("approx convert: %v", err)
	}

	p := sketch.DefaultParams()
	out := &ApproxDoc{Objects: objects, K: cfg.K, Bits: p.Bits, Active: p.Active}

	// One query stream, each query measured `rounds` times.
	qs := make([][][]float64, 0, len(queries)*rounds)
	for r := 0; r < rounds; r++ {
		qs = append(qs, queries...)
	}
	for _, factor := range []int{8, 16, 32, 64} {
		opt := vsdb.ApproxOptions{KNNFactor: factor}
		mdb, err := vsdb.OpenFile(v2, vsdb.LoadOptions{Workers: 1, Approx: &opt})
		if err != nil {
			fatal("approx reopen: %v", err)
		}
		knnApprox := func(q [][]float64, k int) []vsdb.Neighbor {
			return mdb.Search([]vsdb.Query{{Set: q, Kind: vsdb.KNN, K: k, Approx: true}})[0]
		}
		for _, q := range queries { // warmup: page-in + lazy structures
			knnApprox(q, cfg.K)
			mdb.KNN(q, cfg.K)
		}
		rep := recall.EvalKNN(qs, cfg.K, knnApprox, mdb.KNN,
			func() int64 { return mdb.Stats().SketchCandidates })
		pt := ApproxPointDoc{
			KNNFactor:          factor,
			RecallAt10:         rep.MeanRecall,
			ApproxP50MS:        ms(rep.ApproxP50),
			Speedup:            rep.Speedup,
			CandidatesPerQuery: rep.CandidatesPerQuery,
		}
		out.Curve = append(out.Curve, pt)
		if factor == vsdb.DefaultKNNFactor {
			out.ExactP50MS = ms(rep.ExactP50)
			out.ApproxP50MS = pt.ApproxP50MS
			out.Speedup = pt.Speedup
			out.RecallAt10 = pt.RecallAt10
			out.CandidatesPerQuery = pt.CandidatesPerQuery
		}
		mdb.Close()
	}
	return out
}

// measureReplication serves the main corpus from a replicated cluster
// (2 shards × 2 followers, per-shard WALs in a temp directory) and
// measures the three gauges the replica tier is judged by: read latency
// when queries may land on followers, how long a failover promotion
// takes, and how far shipping trails acknowledgement under a sustained
// insert stream.
func measureReplication(ids []uint64, sets [][][]float64, queries [][][]float64, cfg ConfigDoc) *ReplicationDoc {
	const replicas = 2
	dir, err := os.MkdirTemp("", "voxset-bench-repl")
	if err != nil {
		fatal("replication tmp: %v", err)
	}
	defer os.RemoveAll(dir)
	c, err := cluster.New(cluster.Config{
		Shards: 2, Dim: cfg.Dim, MaxCard: cfg.MaxCard, Workers: 1,
		WALDir: dir, WALNoSync: true,
		Replicas: replicas, FollowerReads: true,
	})
	if err != nil {
		fatal("replication cluster: %v", err)
	}
	defer c.Close()
	if err := c.BulkInsert(ids, sets); err != nil {
		fatal("replication bulk insert: %v", err)
	}
	// Drain the bulk-load backlog first — steady state means the stream
	// below, not the one-off load.
	if err := c.WaitReplicaSync(30 * time.Second); err != nil {
		fatal("replication sync: %v", err)
	}

	out := &ReplicationDoc{Replicas: replicas}

	// Steady-state lag: sample the worst follower lag behind each insert
	// of a sustained stream (fresh ids beyond the corpus).
	next := uint64(len(ids) + 1)
	var lagSum float64
	lagN := 0
	for r := 0; r < cfg.Rounds; r++ {
		for i := 0; i < 64; i++ {
			if err := c.Insert(next, sets[i%len(sets)]); err != nil {
				fatal("replication insert: %v", err)
			}
			next++
			lagSum += float64(c.MaxReplicaLag())
			lagN++
		}
	}
	out.SteadyLagRecords = lagSum / float64(lagN)
	if err := c.WaitReplicaSync(30 * time.Second); err != nil {
		fatal("replication sync: %v", err)
	}

	// Follower-read p50: the same k-nn battery as the main measurement,
	// free to land on any caught-up replica.
	for _, q := range queries {
		if _, err := c.KNN(q, cfg.K); err != nil {
			fatal("replication knn: %v", err)
		}
	}
	var lats []float64
	for r := 0; r < cfg.Rounds; r++ {
		for _, q := range queries {
			start := time.Now()
			if _, err := c.KNN(q, cfg.K); err != nil {
				fatal("replication knn: %v", err)
			}
			lats = append(lats, ms(time.Since(start)))
		}
	}
	out.FollowerReadP50MS = percentile(lats, 0.50)

	// Promotion time: kill each shard's primary and time the failover —
	// Kill returns once the most-caught-up follower owns the shard WAL
	// and serves.
	var promo float64
	for i := 0; i < c.N(); i++ {
		start := time.Now()
		if err := c.Kill(i); err != nil {
			fatal("replication kill: %v", err)
		}
		promo += ms(time.Since(start))
	}
	out.PromotionMS = promo / float64(c.N())
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
