package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

// Cross-shard parity oracle: the sharded coordinator must be
// bit-identical — every query result, every step of the way — to the
// brute-force reference model, for every shard width, with every query
// issued by one caller and by several at once. The model is the same one
// the unsharded vsdb oracle is held to (internal/vsdb/oracle_test.go), so
// parity against it is transitively parity against the unsharded engine:
// shards {1,2,4} × callers {1,4} all produce the same bytes. The subtests
// label the caller count "workers", the name it had when it counted
// refinement workers, so their names stay comparable across history.

func parityTraceOptions(nOps int) vsdbtest.TraceOptions {
	// Persist is false: checkpoint/reopen interleavings are exercised by
	// the persistence and chaos suites; here every op must be comparable
	// step-by-step without a filesystem.
	return vsdbtest.TraceOptions{NOps: nOps, Dim: 3, MaxCard: 3, Persist: false}
}

// runParityTrace replays ops against a fresh cluster and the reference
// model in lockstep, every query issued by callers concurrent callers at
// once, failing on the first divergence. It returns an error instead of
// failing t so the shrinker can re-execute candidates.
func runParityTrace(ops []vsdbtest.Op, shards, callers int) error {
	c, err := cluster.New(testConfig(shards))
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer c.Close()
	model := vsdbtest.NewModel(testOmega)
	for step, op := range ops {
		switch op.Kind {
		case vsdbtest.OpInsert:
			if err := c.Insert(op.ID, op.Set); err != nil {
				return fmt.Errorf("step %d %s: %w", step, op, err)
			}
			model.Insert(op.ID, op.Set)
		case vsdbtest.OpBulk:
			if err := c.BulkInsert(op.IDs, op.Sets); err != nil {
				return fmt.Errorf("step %d %s: %w", step, op, err)
			}
			for i, id := range op.IDs {
				model.Insert(id, op.Sets[i])
			}
		case vsdbtest.OpDelete:
			if err := c.Delete(op.ID); err != nil {
				return fmt.Errorf("step %d %s: %w", step, op, err)
			}
			model.Delete(op.ID)
		case vsdbtest.OpKNN, vsdbtest.OpRange:
			if d := checkTraceQuery(c, model, op, callers); d != "" {
				return fmt.Errorf("step %d %s: %s", step, op, d)
			}
		case vsdbtest.OpCompact:
			if err := c.Compact(); err != nil {
				return fmt.Errorf("step %d %s: %w", step, op, err)
			}
		}
	}
	// Final audit: live set and stored bytes agree exactly.
	if c.Len() != model.Len() {
		return fmt.Errorf("final Len = %d, model %d", c.Len(), model.Len())
	}
	for _, id := range model.Order() {
		if c.Get(id) == nil {
			return fmt.Errorf("live id %d missing from cluster", id)
		}
	}
	return nil
}

// checkTraceQuery issues a KNN or Range trace op from callers concurrent
// callers of c and returns the first caller's departure from the model's
// answer, or "".
func checkTraceQuery(c *cluster.DB, model *vsdbtest.Model, op vsdbtest.Op, callers int) string {
	knn := op.Kind == vsdbtest.OpKNN
	want := model.Range(op.Set, op.Eps)
	if knn {
		want = model.KNN(op.Set, op.K)
	}
	return vsdbtest.Concurrently(callers, func() string {
		res, err := c.Range(op.Set, op.Eps)
		if knn {
			res, err = c.KNN(op.Set, op.K)
		}
		if err != nil {
			return err.Error()
		}
		if res.Partial || res.Errors != nil {
			return "fault-free query reported partial"
		}
		return vsdbtest.Diff(res.Neighbors, want)
	})
}

// failParityTrace reports a shrunk counterexample.
func failParityTrace(t *testing.T, ops []vsdbtest.Op, shards, callers int, err error) {
	t.Helper()
	small := vsdbtest.Shrink(ops, func(cand []vsdbtest.Op) bool {
		return runParityTrace(cand, shards, callers) != nil
	}, 200)
	serr := runParityTrace(small, shards, callers)
	t.Fatalf("parity violated (shards=%d callers=%d): %v\nshrunk to %d ops (err: %v):\n%v",
		shards, callers, err, len(small), serr, small)
}

func TestClusterParity(t *testing.T) {
	nOps := 5000
	if testing.Short() {
		nOps = 600
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			shards, workers := shards, workers
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				t.Parallel()
				ops := vsdbtest.GenTrace(991, parityTraceOptions(nOps))
				if err := runParityTrace(ops, shards, workers); err != nil {
					failParityTrace(t, ops, shards, workers, err)
				}
			})
		}
	}
}

// Distinct seeds hit distinct interleavings of reinsertion, bulk
// batches straddling shards, and compactions between queries.
func TestClusterParitySeeds(t *testing.T) {
	nOps := 800
	if testing.Short() {
		nOps = 200
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := vsdbtest.GenTrace(seed, parityTraceOptions(nOps))
			for _, shards := range []int{2, 4} {
				if err := runParityTrace(ops, shards, 1); err != nil {
					failParityTrace(t, ops, shards, 1, err)
				}
			}
		})
	}
}

// The same trace replayed at every shard width must not only match the
// model — the query transcripts must be identical to each other byte for
// byte. This is the direct statement of the acceptance criterion.
func TestClusterParityTranscripts(t *testing.T) {
	nOps := 1200
	if testing.Short() {
		nOps = 300
	}
	ops := vsdbtest.GenTrace(424242, parityTraceOptions(nOps))
	widths := []int{1, 2, 4}
	transcripts := make([]string, len(widths))
	for wi, shards := range widths {
		c, err := cluster.New(testConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for step, op := range ops {
			switch op.Kind {
			case vsdbtest.OpInsert:
				err = c.Insert(op.ID, op.Set)
			case vsdbtest.OpBulk:
				err = c.BulkInsert(op.IDs, op.Sets)
			case vsdbtest.OpDelete:
				err = c.Delete(op.ID)
			case vsdbtest.OpCompact:
				err = c.Compact()
			case vsdbtest.OpKNN:
				var res cluster.Result
				res, err = c.KNN(op.Set, op.K)
				buf = append(buf, fmt.Sprintf("%d:%v\n", step, res.Neighbors)...)
			case vsdbtest.OpRange:
				var res cluster.Result
				res, err = c.Range(op.Set, op.Eps)
				buf = append(buf, fmt.Sprintf("%d:%v\n", step, res.Neighbors)...)
			}
			if err != nil {
				t.Fatalf("shards=%d step %d %s: %v", shards, step, op, err)
			}
		}
		c.Close()
		transcripts[wi] = string(buf)
	}
	for wi := 1; wi < len(widths); wi++ {
		if transcripts[wi] != transcripts[0] {
			t.Fatalf("query transcript at %d shards differs from %d", widths[wi], widths[0])
		}
	}
}

// familyCorpus draws n objects and the given number of queries from part
// families, as in the paper's CAD catalogs: each family is a prototype
// set of nonnegative, counts-like components, and members (and queries)
// jitter every component, so a query's true neighbours are its family.
func familyCorpus(seed int64, n, queries int) (ids []uint64, sets, qs [][][]float64) {
	const (
		dim     = 4
		maxCard = 5
		jitter  = 1.0
	)
	rng := rand.New(rand.NewSource(seed))
	families := make([][][]float64, n/25+1)
	for f := range families {
		set := make([][]float64, 1+rng.Intn(maxCard))
		for i := range set {
			v := make([]float64, dim)
			for j := range v {
				v[j] = math.Abs(rng.NormFloat64()*2 + 4)
			}
			set[i] = v
		}
		families[f] = set
	}
	sample := func() [][]float64 {
		base := families[rng.Intn(len(families))]
		set := make([][]float64, len(base))
		for i, bv := range base {
			v := make([]float64, dim)
			for j := range v {
				v[j] = bv[j] + rng.NormFloat64()*jitter
			}
			set[i] = v
		}
		return set
	}
	ids = make([]uint64, n)
	sets = make([][][]float64, n)
	for i := range ids {
		ids[i], sets[i] = uint64(i+1), sample()
	}
	qs = make([][][]float64, queries)
	for i := range qs {
		qs[i] = sample()
	}
	return ids, sets, qs
}

// transcript serializes a stream of answers — ids and the exact bit
// patterns of the distances — so two engines are answer-for-answer
// identical iff their transcripts are equal.
func transcript(answers [][]vsdb.Neighbor) string {
	var b strings.Builder
	for _, res := range answers {
		fmt.Fprintf(&b, "%d:", len(res))
		for _, nb := range res {
			fmt.Fprintf(&b, " %d/%x", nb.ID, math.Float64bits(nb.Dist))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestClusterTranscriptsMatchSingle: over a bulk-loaded family corpus —
// every object base-resident, so the centroid ranking, the signature
// stage and the merged multi-step loop all run — the coordinator's
// k-nn and ε-range transcripts equal a single database's byte for byte
// at every shard width, for each of workers=N concurrent callers.
func TestClusterTranscriptsMatchSingle(t *testing.T) {
	const (
		n       = 800
		queries = 25
		k       = 12
		eps     = 2.5
	)
	omega := []float64{0.3, -0.1, 0.7, 0.2}
	ids, sets, qs := familyCorpus(31, n, queries)
	ref, err := vsdb.Open(vsdb.Config{Dim: 4, MaxCard: 5, Omega: omega})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	var wantKNN, wantRange [][]vsdb.Neighbor
	for _, q := range qs {
		wantKNN = append(wantKNN, ref.KNN(q, k))
		wantRange = append(wantRange, ref.Range(q, eps))
	}

	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c, err := cluster.New(cluster.Config{Shards: shards, Dim: 4, MaxCard: 5, Omega: omega})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if err := c.BulkInsert(ids, sets); err != nil {
					t.Fatal(err)
				}
				if msg := vsdbtest.Concurrently(workers, func() string {
					var gotKNN, gotRange [][]vsdb.Neighbor
					for _, q := range qs {
						nn, err := c.KNN(q, k)
						if err != nil {
							return err.Error()
						}
						rr, err := c.Range(q, eps)
						if err != nil {
							return err.Error()
						}
						gotKNN, gotRange = append(gotKNN, nn.Neighbors), append(gotRange, rr.Neighbors)
					}
					if transcript(gotKNN) != transcript(wantKNN) {
						return "cluster k-nn transcript differs from the single database"
					}
					if transcript(gotRange) != transcript(wantRange) {
						return "cluster range transcript differs from the single database"
					}
					return ""
				}); msg != "" {
					t.Fatal(msg)
				}
			})
		}
	}
}
