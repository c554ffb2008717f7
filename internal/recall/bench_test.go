package recall

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/degrade"
	"github.com/voxset/voxset/internal/vsdb"
)

// benchSeed fixes every corpus the benchmarks below build, so their
// numbers stay comparable with the tables EXPERIMENTS.md has recorded.
const benchSeed = 0x5eed6

const (
	curveDim     = 6
	curveMaxCard = 7
	curveK       = 10
	// curveQueries distinct queries are cycled, so no page, cache line or
	// branch history is warm for one repeated query and not for the rest.
	curveQueries = 1024
	// curveEpsSample queries set each range bucket's ε.
	curveEpsSample = 256
)

// familyCorpus builds the corpus the approximate tier is measured on:
// part families, as in the paper's CAD catalogs — each family is a
// prototype set with uniform components in [0, 10), and members jitter
// every component with Gaussian noise. A query's true neighbors are its
// family, which is the neighborhood structure similarity search exists
// to exploit; on a structureless uniform corpus the exact top-k is
// barely closer than random objects and recall@k would measure noise
// rather than the tier.
func familyCorpus(objects, queries int) (ids []uint64, sets [][][]float64, qs [][][]float64) {
	const jitter = 1.2
	rng := rand.New(rand.NewSource(benchSeed))
	families := make([][][]float64, objects/100+1)
	for f := range families {
		set := make([][]float64, 1+rng.Intn(curveMaxCard))
		for i := range set {
			v := make([]float64, curveDim)
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
			v := make([]float64, curveDim)
			for j := range v {
				v[j] = bv[j] + rng.NormFloat64()*jitter
			}
			set[i] = v
		}
		return set
	}
	ids = make([]uint64, objects)
	sets = make([][][]float64, objects)
	for i := range sets {
		ids[i] = uint64(i + 1)
		sets[i] = sample()
	}
	qs = make([][][]float64, queries)
	for i := range qs {
		qs[i] = sample()
	}
	return ids, sets, qs
}

// persistFamilyCorpus writes an n-object familyCorpus the way a server
// would serve it — SaveFile, a paged VXSNAP02 file carrying the sketch
// table — and returns that file and the queries.
func persistFamilyCorpus(b *testing.B, n int) (string, [][][]float64) {
	ids, sets, queries := familyCorpus(n, curveQueries)
	db, err := vsdb.Open(vsdb.Config{Dim: curveDim, MaxCard: curveMaxCard, Workers: 1, Approx: &vsdb.ApproxOptions{}})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "family.vsnap")
	if err := db.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	db.Close()
	return path, queries
}

// openCurveDB maps the persisted corpus with the tier configured by opt
// (adopting the persisted sketches) on one worker, so a query's wall
// time is its CPU time.
func openCurveDB(b *testing.B, path string, opt vsdb.ApproxOptions) *vsdb.DB {
	db, err := vsdb.OpenFile(path, vsdb.LoadOptions{Workers: 1, Approx: &opt})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// cycle returns an n-query stream that walks qs in order and wraps.
func cycle(qs [][][]float64, n int) [][][]float64 {
	out := make([][][]float64, n)
	for i := range out {
		out[i] = qs[i%len(qs)]
	}
	return out
}

// bucketEps returns, per result-size bucket r, the median over the first
// curveEpsSample queries of the distance to a query's r-th exact
// neighbour — an ε whose range answer holds about r objects.
func bucketEps(db *vsdb.DB, queries [][][]float64, buckets []int) []float64 {
	kmax := buckets[len(buckets)-1]
	dists := make([][]float64, len(buckets))
	for _, q := range queries[:min(curveEpsSample, len(queries))] {
		res := db.KNN(q, kmax)
		for i, r := range buckets {
			dists[i] = append(dists[i], res[r-1].Dist)
		}
	}
	eps := make([]float64, len(buckets))
	for i, d := range dists {
		sort.Float64s(d)
		eps[i] = d[len(d)/2]
	}
	return eps
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// BenchmarkApproxCurve is the approximate tier's speed-vs-recall curve
// (DESIGN.md §12, the propose-then-refine candidate stage) against the
// exact path, at 10 k and 100 k objects of familyCorpus. Every
// sub-benchmark reopens the same persisted file, so the curve's points
// share one sketch table and differ only in the query path. One op is
// one query through both engines, approximate then exact; the reported
// costs are means per query. Before timing, each sub-benchmark runs the
// distinct queries its stream holds once, so the mapping's pages are
// faulted and CRC-checked as on a serving process.
//
//   - knn/factor=F: ApproxOptions.KNNFactor = F; recall@10 mean and min
//     against the exact answer, and the tier's candidates per query.
//   - range/bucket=R: ε = the median distance of a query's R-th exact
//     neighbour (reported as eps), RangeCandidates at its default;
//     ε-recall mean and min.
//
// Run the whole curve with -benchtime 1024x (one pass over the queries).
func BenchmarkApproxCurve(b *testing.B) {
	buckets := []int{10, 100, 400}
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			path, queries := persistFamilyCorpus(b, n)
			for _, factor := range []int{8, 16, 32, 64} {
				b.Run(fmt.Sprintf("knn/factor=%d", factor), func(b *testing.B) {
					db := openCurveDB(b, path, vsdb.ApproxOptions{KNNFactor: factor})
					approx := func(q [][]float64, k int) []vsdb.Neighbor {
						return db.Search([]vsdb.Query{{Set: q, Kind: vsdb.KNN, K: k, Approx: true}})[0]
					}
					stream := cycle(queries, b.N)
					EvalKNN(stream[:min(b.N, len(queries))], curveK, approx, db.KNN, nil)
					b.ResetTimer()
					rep := EvalKNN(stream, curveK, approx, db.KNN, func() int64 { return db.Stats().SketchCandidates })
					b.ReportMetric(micros(rep.Exact), "exact_us/query")
					b.ReportMetric(micros(rep.Approx), "approx_us/query")
					b.ReportMetric(rep.MeanRecall, "recall@10")
					b.ReportMetric(rep.MinRecall, "min_recall@10")
					b.ReportMetric(rep.CandidatesPerQuery, "candidates/query")
				})
			}
			eps := bucketEps(openCurveDB(b, path, vsdb.ApproxOptions{}), queries, buckets)
			for i, r := range buckets {
				b.Run(fmt.Sprintf("range/bucket=%d", r), func(b *testing.B) {
					db := openCurveDB(b, path, vsdb.ApproxOptions{})
					approx := func(q [][]float64, e float64) []vsdb.Neighbor {
						return db.Search([]vsdb.Query{{Set: q, Kind: vsdb.Range, Eps: e, Approx: true}})[0]
					}
					stream := cycle(queries, b.N)
					EvalRange(stream[:min(b.N, len(queries))], eps[i], approx, db.Range)
					b.ResetTimer()
					rep := EvalRange(stream, eps[i], approx, db.Range)
					b.ReportMetric(micros(rep.Exact), "exact_us/query")
					b.ReportMetric(micros(rep.Approx), "approx_us/query")
					b.ReportMetric(rep.MeanEpsRecall, "eps_recall")
					b.ReportMetric(rep.MinEpsRecall, "min_eps_recall")
					b.ReportMetric(eps[i], "eps")
				})
			}
		})
	}
}

// BenchmarkDegradedRecall is the scan-to-CAD table (DESIGN.md §14): 96
// Aircraft parts, normalized scans at r = 15 with 7 covers, each part
// queried by a damaged rescan of itself. One sub-benchmark per damage
// kind × severity reports how often the true part reached the top 10
// under full minimal matching and under partial matching on the best 4
// sub-vectors. Everything is seeded, so each recall is an exact multiple
// of 1/96 and repeats run for run; one op is the cell's 96 full plus 96
// partial queries. The recall floors are TestDegraded*'s; this is the
// table.
func BenchmarkDegradedRecall(b *testing.B) {
	const (
		parts    = 96
		k        = 10
		partialI = 4
	)
	cat := BuildCatalog(cadgen.AircraftDataset(benchSeed, parts), degradedR, degradedCovers)
	db := newDegradedDB(b, cat)
	partial := func(q [][]float64, kk int) []vsdb.Neighbor {
		return db.Search([]vsdb.Query{{Set: q, Kind: vsdb.KNN, K: kk, Match: vsdb.SetQuery{Partial: true, I: partialI}}})[0]
	}
	for _, kind := range degrade.Kinds {
		for _, sev := range []float64{0.1, 0.25} {
			b.Run(fmt.Sprintf("%s/severity=%g", kind, sev), func(b *testing.B) {
				queries := DegradedQueries(cat, degradedCovers, degrade.Params{Kind: kind, Severity: sev, Seed: benchSeed})
				b.ResetTimer()
				var full, part float64
				for i := 0; i < b.N; i++ {
					full = TruePartRecall(cat, queries, k, db.KNN)
					part = TruePartRecall(cat, queries, k, partial)
				}
				b.ReportMetric(full, "recall_full@10")
				b.ReportMetric(part, "recall_partial@10")
			})
		}
	}
}
