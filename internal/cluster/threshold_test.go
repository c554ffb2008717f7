package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// jitteredCorpus is the served corpus's shape at test scale: parts × copies
// objects, each copy a part's random 6-d vectors plus Gaussian noise, and
// per query a jittered copy of every sixth part — so a query has a few
// near neighbours and a long tail.
func jitteredCorpus(seed int64, parts, copies, queries, card int) (ids []uint64, sets, qs [][][]float64) {
	const dim = 6
	rng := rand.New(rand.NewSource(seed))
	jitter := func(set [][]float64) [][]float64 {
		out := make([][]float64, len(set))
		for i, v := range set {
			out[i] = make([]float64, dim)
			for c := range v {
				out[i][c] = v[c] + rng.NormFloat64()*0.5
			}
		}
		return out
	}
	base := make([][][]float64, parts)
	for p := range base {
		base[p] = make([][]float64, 1+rng.Intn(card))
		for i := range base[p] {
			base[p][i] = make([]float64, dim)
			for c := range base[p][i] {
				base[p][i][c] = rng.NormFloat64() * 5
			}
		}
	}
	for p, part := range base {
		for c := 0; c < copies; c++ {
			ids = append(ids, uint64(p*copies+c))
			sets = append(sets, jitter(part))
		}
	}
	for i := 0; i < queries; i++ {
		qs = append(qs, jitter(base[(i*6)%parts]))
	}
	return ids, sets, qs
}

// funnel is the summed refinement counters of a set of databases.
type funnel struct{ passed, refined, solved int64 }

func readFunnel(dbs ...*vsdb.DB) funnel {
	var f funnel
	for _, db := range dbs {
		st := db.Stats()
		f.passed += st.SignaturePruned + st.Refinements
		f.refined += st.Refinements
		f.solved += st.Matchings
	}
	return f
}

func resetFunnel(dbs ...*vsdb.DB) {
	for _, db := range dbs {
		db.ResetRefinements()
	}
}

// TestShardedKNNRefinesLikeUnsharded: a 4-shard k-nn answers exactly what
// one database holding every object answers, and — because the coordinator
// walks the shards' candidate streams in one global bound order against
// one k-th distance — its shards together refine and solve within 1.10 ×
// of what the one database does. The counts are measured on this corpus
// and pinned, beside the reference a scatter gives (each shard answering
// its own top k from scratch). Every shard and the one database encode
// their signatures in code spaces of their own centroid blocks, so the
// signature stage may settle a handful of candidates differently across
// them: merged refines within a few candidates of unsharded, never in
// which candidates pass Lemma 2 or get solved. On this corpus the centroid bound is weak
// (over half the objects pass it per query), so the saving shows mostly
// in the solves.
func TestShardedKNNRefinesLikeUnsharded(t *testing.T) {
	const shards, k = 4, 10
	// Measured on this test (2 000 objects, 64 queries, k = 10):
	//   one database       78 624 passed Lemma 2, 55 379 refined,  2 870 solved
	//   4 shards, merged   78 624 passed,         55 380 refined,  2 870 solved
	//   4 shards, scatter  87 441 passed,         70 643 refined, 11 739 solved
	want := map[string]funnel{
		"unsharded": {78624, 55379, 2870},
		"merged":    {78624, 55380, 2870},
		"scatter":   {87441, 70643, 11739},
	}
	ids, sets, qsets := jitteredCorpus(41, 250, 8, 64, 7)
	cfg := cluster.Config{Shards: shards, Dim: 6, MaxCard: 7}
	c := newCluster(t, cfg)
	if err := c.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	one, err := vsdb.Open(vsdb.Config{Dim: 6, MaxCard: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	qs := batchOf(qsets, vsdb.Query{Kind: vsdb.KNN, K: k})
	var members []*vsdb.DB
	for i := 0; i < shards; i++ {
		members = append(members, c.Shard(i))
	}

	got := make(map[string]funnel)
	resetFunnel(one)
	want1 := vsearch(one, qs)
	got["unsharded"] = readFunnel(one)

	resetFunnel(members...)
	res, err := c.Search(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	got["merged"] = readFunnel(members...)
	for i := range qs {
		if !reflect.DeepEqual(res[i].Neighbors, want1[i]) {
			t.Fatalf("query %d: cluster %v, one database %v", i, res[i].Neighbors, want1[i])
		}
	}

	resetFunnel(members...)
	lists := make([][][]vsdb.Neighbor, len(qs))
	for _, m := range members {
		for i, l := range vsearch(m, qs) {
			lists[i] = append(lists[i], l)
		}
	}
	got["scatter"] = readFunnel(members...)
	for i := range qs {
		if merged := cluster.Merge(lists[i], k); !reflect.DeepEqual(merged, want1[i]) {
			t.Fatalf("query %d: scatter reference %v, one database %v", i, merged, want1[i])
		}
	}

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: funnel %+v, measured %+v", name, got[name], w)
		}
	}
	m, u := got["merged"], got["unsharded"]
	if m.refined*10 > u.refined*11 || m.solved*10 > u.solved*11 {
		t.Errorf("4 shards refine/solve %d/%d, one database %d/%d: more than 1.10×", m.refined, m.solved, u.refined, u.solved)
	}
}

// TestSearchVisitsShardsInTurn: in strict mode the first failing shard
// ends the visit — the shards after it never see the query — while in
// partial mode every shard after a failure is still visited, and the
// survivors' merge is what the single query gives.
func TestSearchVisitsShardsInTurn(t *testing.T) {
	const shards = 4
	var failing atomic.Int32
	failing.Store(-1)
	cfg := testConfig(shards)
	cfg.Retries = -1
	cfg.Fault = cluster.FaultFunc(func(_ context.Context, shard int, op cluster.Op, _ int) error {
		if op == cluster.OpSearch && int32(shard) == failing.Load() {
			return errors.New("injected")
		}
		return nil
	})
	c := newCluster(t, cfg)
	populate(t, c, 200, 9)
	queries := func() []int64 {
		var out []int64
		for _, st := range c.Status() {
			out = append(out, st.Queries)
		}
		return out
	}
	q := vsdb.Query{Set: randSet(rand.New(rand.NewSource(3))), Kind: vsdb.KNN, K: 5}
	for fail := 0; fail < shards; fail++ {
		t.Run(fmt.Sprintf("fail=%d", fail), func(t *testing.T) {
			failing.Store(int32(fail))
			defer failing.Store(-1)

			c.SetPartial(false)
			before := queries()
			if _, err := searchOne(c, q); err == nil {
				t.Fatal("strict: a failing shard did not fail the query")
			}
			after := queries()
			for i := range after {
				if visited := after[i] > before[i]; visited != (i <= fail) {
					t.Errorf("strict, shard %d failing: shard %d visited=%v", fail, i, visited)
				}
			}

			c.SetPartial(true)
			defer c.SetPartial(false)
			before = queries()
			got, err := searchOne(c, q)
			if err != nil {
				t.Fatal(err)
			}
			after = queries()
			for i := range after {
				if after[i] == before[i] {
					t.Errorf("partial, shard %d failing: shard %d not visited", fail, i)
				}
			}
			if !got.Partial || got.Errors[fail] == nil || len(got.Errors) != 1 {
				t.Fatalf("partial: Partial=%v Errors=%v, want shard %d alone", got.Partial, got.Errors, fail)
			}
			// The survivors' answer: each surviving shard's unbounded top K,
			// merged.
			var lists [][]vsdb.Neighbor
			for i := 0; i < shards; i++ {
				if i != fail {
					lists = append(lists, vsearch(c.Shard(i), []vsdb.Query{q})[0])
				}
			}
			if want := cluster.Merge(lists, q.K); !reflect.DeepEqual(got.Neighbors, want) {
				t.Fatalf("partial: %v, survivors merged %v", got.Neighbors, want)
			}
		})
	}
}
