package recall

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

const (
	oracleDim     = 4
	oracleMaxCard = 5
)

var oracleOmega = []float64{0.3, -0.1, 0.7, 0.2}

// randomSet draws a voxel-style vector set: feature components are
// nonnegative counts-like values (shifted Gaussians), matching the
// paper's cover-sequence and volume features rather than a zero-mean
// cloud.
func randomSet(rng *rand.Rand) [][]float64 {
	card := 1 + rng.Intn(oracleMaxCard)
	set := make([][]float64, card)
	for i := range set {
		v := make([]float64, oracleDim)
		for j := range v {
			v[j] = math.Abs(rng.NormFloat64()*2 + 4)
		}
		set[i] = v
	}
	return set
}

// oracleData generates the shared synthetic corpus and query workload:
// part families, as in the paper's CAD catalogs. Each family is a
// prototype vector set drawn by randomSet; members (and queries) jitter
// every component, so a query's true neighbors are its family — the
// neighborhood structure similarity search exists to exploit. A
// structureless i.i.d. corpus would make recall@k measure noise: the
// exact top-k there is barely closer than random objects.
func oracleData(seed int64, n, queries int) (ids []uint64, sets [][][]float64, qs [][][]float64) {
	const jitter = 1.0
	rng := rand.New(rand.NewSource(seed))
	families := make([][][]float64, n/25+1)
	for i := range families {
		families[i] = randomSet(rng)
	}
	sample := func() [][]float64 {
		base := families[rng.Intn(len(families))]
		set := make([][]float64, len(base))
		for i, bv := range base {
			v := make([]float64, oracleDim)
			for j := range v {
				v[j] = bv[j] + rng.NormFloat64()*jitter
			}
			set[i] = v
		}
		return set
	}
	ids = make([]uint64, n)
	sets = make([][][]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = uint64(i + 1)
		sets[i] = sample()
	}
	qs = make([][][]float64, queries)
	for i := range qs {
		qs[i] = sample()
	}
	return
}

// buildCluster assembles an approx-configured (or exact-only, when
// approx is nil) cluster over the corpus at the given shard and worker
// counts. Bulk insertion makes every object base-resident, so the
// sketch tier is actually exercised.
func buildCluster(t *testing.T, ids []uint64, sets [][][]float64, shards, workers int, approx *vsdb.ApproxOptions) *cluster.DB {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Shards: shards, Dim: oracleDim, MaxCard: oracleMaxCard,
		Omega: oracleOmega, Workers: workers, Approx: approx,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	return c
}

// clusterSearch answers one query through the coordinator's Search.
func clusterSearch(t *testing.T, c *cluster.DB, q vsdb.Query) []vsdb.Neighbor {
	rs, err := c.Search([]vsdb.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0].Neighbors
}

func clusterKNN(t *testing.T, c *cluster.DB) KNNFunc {
	return func(q [][]float64, k int) []vsdb.Neighbor {
		return clusterSearch(t, c, vsdb.Query{Set: q, Kind: vsdb.KNN, K: k})
	}
}

func clusterKNNApprox(t *testing.T, c *cluster.DB) KNNFunc {
	return func(q [][]float64, k int) []vsdb.Neighbor {
		return clusterSearch(t, c, vsdb.Query{Set: q, Kind: vsdb.KNN, K: k, Approx: true})
	}
}

func clusterRange(t *testing.T, c *cluster.DB) RangeFunc {
	return func(q [][]float64, eps float64) []vsdb.Neighbor {
		return clusterSearch(t, c, vsdb.Query{Set: q, Kind: vsdb.Range, Eps: eps})
	}
}

func clusterRangeApprox(t *testing.T, c *cluster.DB) RangeFunc {
	return func(q [][]float64, eps float64) []vsdb.Neighbor {
		return clusterSearch(t, c, vsdb.Query{Set: q, Kind: vsdb.Range, Eps: eps, Approx: true})
	}
}

// sketchCandidates reads the cluster's candidate gauge for EvalKNN.
func sketchCandidates(c *cluster.DB) func() int64 {
	return func() int64 { return c.Stats().SketchCandidates }
}

// oracleApprox is the tier configuration the floor tests pin: the
// package defaults, which are also what voxserve -approx serves.
func oracleApprox() *vsdb.ApproxOptions { return &vsdb.ApproxOptions{} }

// TestRecallAtKUnit pins the metric itself.
func TestRecallAtKUnit(t *testing.T) {
	nb := func(ids ...uint64) []vsdb.Neighbor {
		out := make([]vsdb.Neighbor, len(ids))
		for i, id := range ids {
			out[i] = vsdb.Neighbor{ID: id}
		}
		return out
	}
	cases := []struct {
		approx, exact []vsdb.Neighbor
		want          float64
	}{
		{nb(1, 2, 3), nb(1, 2, 3), 1},
		{nb(1, 2, 4), nb(1, 2, 3), 2.0 / 3},
		{nb(), nb(1, 2), 0},
		{nb(), nb(), 1},
		{nb(9, 8, 7), nb(1, 2, 3), 0},
	}
	for i, c := range cases {
		if got := RecallAtK(c.approx, c.exact); got != c.want {
			t.Fatalf("case %d: recall = %v, want %v", i, got, c.want)
		}
	}
}

// TestRecallFloorAcrossTopologies: at every shards × workers combination
// the default tier keeps mean recall@10 above the pinned floor on a
// randomized corpus. The floor is deliberately below the measured value
// (≈0.97+) so parameter regressions fail loudly while seed-to-seed
// variation does not.
func TestRecallFloorAcrossTopologies(t *testing.T) {
	const (
		n       = 1500
		queries = 40
		k       = 10
		floor   = 0.90
	)
	ids, sets, qs := oracleData(101, n, queries)
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c := buildCluster(t, ids, sets, shards, workers, oracleApprox())
				rep := EvalKNN(qs, k, clusterKNNApprox(t, c), clusterKNN(t, c), sketchCandidates(c))
				if rep.MeanRecall < floor {
					t.Fatalf("mean recall@%d = %.3f below floor %.2f (min %.3f)",
						k, rep.MeanRecall, floor, rep.MinRecall)
				}
				if rep.CandidatesPerQuery <= 0 {
					t.Fatalf("tier proposed no candidates (%.1f/query)", rep.CandidatesPerQuery)
				}
				t.Logf("recall@%d mean %.3f min %.3f, %.0f candidates/query, approx mean %v vs exact %v",
					k, rep.MeanRecall, rep.MinRecall, rep.CandidatesPerQuery, rep.Approx, rep.Exact)
			})
		}
	}
}

// TestApproxOffTranscriptsByteIdentical: with no tier configured, the
// approximate entry points ARE the exact engine — the full query
// transcripts (ids and distance bit patterns) are byte-identical to the
// exact paths at every shards × workers combination, and to a plain
// single vsdb database over the same corpus.
func TestApproxOffTranscriptsByteIdentical(t *testing.T) {
	const (
		n       = 800
		queries = 25
		k       = 12
		eps     = 2.5
	)
	ids, sets, qs := oracleData(31, n, queries)

	ref, err := vsdb.Open(vsdb.Config{Dim: oracleDim, MaxCard: oracleMaxCard, Omega: oracleOmega})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	want := Transcript(qs, k, func(q [][]float64, k int) []vsdb.Neighbor { return ref.KNN(q, k) })
	wantRange := RangeTranscript(qs, eps, func(q [][]float64, e float64) []vsdb.Neighbor { return ref.Range(q, e) })

	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c := buildCluster(t, ids, sets, shards, workers, nil)
				if got := Transcript(qs, k, clusterKNNApprox(t, c)); !bytes.Equal(got, want) {
					t.Fatal("approx-off approximate k-nn transcript differs from the exact engine")
				}
				if got := Transcript(qs, k, clusterKNN(t, c)); !bytes.Equal(got, want) {
					t.Fatal("exact cluster KNN transcript differs from the single database")
				}
				if got := RangeTranscript(qs, eps, clusterRangeApprox(t, c)); !bytes.Equal(got, wantRange) {
					t.Fatal("approx-off approximate range transcript differs from the exact engine")
				}
				if n := c.Stats().SketchCandidates; n != 0 {
					t.Fatalf("unconfigured tier proposed %d candidates", n)
				}
			})
		}
	}
}

// TestApproxTranscriptsWorkerInvariant: with the tier on, the
// approximate answers are a deterministic function of the data and the
// parameters — worker count never changes a transcript. (Shard count
// may: each shard budgets candidates locally.)
func TestApproxTranscriptsWorkerInvariant(t *testing.T) {
	const (
		n       = 900
		queries = 25
		k       = 10
	)
	ids, sets, qs := oracleData(57, n, queries)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c1 := buildCluster(t, ids, sets, shards, 1, oracleApprox())
			c4 := buildCluster(t, ids, sets, shards, 4, oracleApprox())
			t1 := Transcript(qs, k, clusterKNNApprox(t, c1))
			t4 := Transcript(qs, k, clusterKNNApprox(t, c4))
			if !bytes.Equal(t1, t4) {
				t.Fatal("approximate transcript depends on worker count")
			}
		})
	}
}

// TestEpsRecall: approximate range answers are a subset of the exact
// ε-sphere (refinement keeps distances exact, so nothing outside the
// sphere can leak in) and recover most of it under the default tier.
func TestEpsRecall(t *testing.T) {
	const (
		n       = 1200
		queries = 30
		eps     = 2.0
		floor   = 0.80
	)
	ids, sets, qs := oracleData(77, n, queries)
	c := buildCluster(t, ids, sets, 4, 2, oracleApprox())
	exact := clusterRange(t, c)
	approx := clusterRangeApprox(t, c)

	for i, q := range qs {
		e := exact(q, eps)
		inExact := make(map[uint64]float64, len(e))
		for _, nb := range e {
			inExact[nb.ID] = nb.Dist
		}
		for _, nb := range approx(q, eps) {
			d, ok := inExact[nb.ID]
			if !ok {
				t.Fatalf("query %d: approximate hit %d outside the exact ε-sphere", i, nb.ID)
			}
			if d != nb.Dist {
				t.Fatalf("query %d: hit %d distance %v, exact %v", i, nb.ID, nb.Dist, d)
			}
		}
	}
	rep := EvalRange(qs, eps, approx, exact)
	if rep.MeanEpsRecall < floor {
		t.Fatalf("mean ε-recall = %.3f below floor %.2f (min %.3f)",
			rep.MeanEpsRecall, floor, rep.MinEpsRecall)
	}
	t.Logf("ε-recall mean %.3f min %.3f over %d queries", rep.MeanEpsRecall, rep.MinEpsRecall, rep.Queries)
}

// TestEvalKNNReportShape: the harness numbers themselves — query count,
// perfect recall against itself, sane mean latencies.
func TestEvalKNNReportShape(t *testing.T) {
	ids, sets, qs := oracleData(5, 300, 10)
	c := buildCluster(t, ids, sets, 1, 1, oracleApprox())
	exact := clusterKNN(t, c)
	rep := EvalKNN(qs, 5, exact, exact, nil)
	if rep.Queries != 10 || rep.K != 5 {
		t.Fatalf("report identity fields: %+v", rep)
	}
	if rep.MeanRecall != 1 || rep.MinRecall != 1 {
		t.Fatalf("engine against itself: recall %v/%v, want 1/1", rep.MeanRecall, rep.MinRecall)
	}
	if rep.Exact <= 0 || rep.Approx <= 0 {
		t.Fatalf("non-positive mean latencies: %+v", rep)
	}
}
