package cluster_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
)

// TestSetQueryShardedEqualsUnsharded: queries carrying a Match through
// the cluster coordinator must be bit-identical to an unsharded
// database holding the same objects — for the minimal matching distance
// (where it inherits KNN's guarantee) and for the partial matching
// distance (where it holds because partial matching is scored per
// object, so per-shard top-k + merge is exact despite the distance not
// being a metric).
func TestSetQueryShardedEqualsUnsharded(t *testing.T) {
	ref, err := vsdb.Open(vsdb.Config{Dim: 3, MaxCard: 3, Omega: testOmega})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	one := newCluster(t, testConfig(1))
	four := newCluster(t, testConfig(4))
	rng := rand.New(rand.NewSource(99))
	for id := uint64(1); id <= 120; id++ {
		set := randSet(rng)
		if err := ref.Insert(id, set); err != nil {
			t.Fatal(err)
		}
		if err := one.Insert(id, set); err != nil {
			t.Fatal(err)
		}
		if err := four.Insert(id, set); err != nil {
			t.Fatal(err)
		}
	}
	queries := []vsdb.SetQuery{
		{},
		{Partial: true},
		{Partial: true, I: 1},
		{Partial: true, I: 2},
	}
	for trial := 0; trial < 8; trial++ {
		q := randSet(rng)
		for _, sq := range queries {
			knn := vsdb.Query{Set: q, Kind: vsdb.KNN, K: 10, Match: sq}
			want := vsearch(ref, []vsdb.Query{knn})[0]
			for _, c := range []*cluster.DB{one, four} {
				res, err := searchOne(c, knn)
				if err != nil {
					t.Fatal(err)
				}
				if res.Partial || !reflect.DeepEqual(res.Neighbors, want) {
					t.Fatalf("trial %d %+v shards=%d: got %v, want %v", trial, sq, c.N(), res.Neighbors, want)
				}
			}
			within := vsdb.Query{Set: q, Kind: vsdb.Range, Eps: 1.5, Match: sq}
			wantR := vsearch(ref, []vsdb.Query{within})[0]
			for _, c := range []*cluster.DB{one, four} {
				res, err := searchOne(c, within)
				if err != nil {
					t.Fatal(err)
				}
				got := res.Neighbors
				if len(got) == 0 && len(wantR) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, wantR) {
					t.Fatalf("trial %d %+v shards=%d range: got %v, want %v", trial, sq, c.N(), got, wantR)
				}
			}
		}
	}
}

var errFlakySet = errors.New("transient set-query fault")

// TestSetQueryFaultRetry: partial-matching queries run under OpSearch
// like every other read, so injected faults and timeouts on them retry.
func TestSetQueryFaultRetry(t *testing.T) {
	cfg := testConfig(2)
	failures := 0
	cfg.Fault = cluster.FaultFunc(func(_ context.Context, shard int, op cluster.Op, attempt int) error {
		if op == cluster.OpSearch && shard == 0 && attempt == 0 {
			failures++
			return errFlakySet
		}
		return nil
	})
	c := newCluster(t, cfg)
	populate(t, c, 40, 17)
	res, err := searchOne(c, vsdb.Query{Set: [][]float64{{0, 0, 0}}, Kind: vsdb.KNN, K: 5, Match: vsdb.SetQuery{Partial: true}})
	if err != nil {
		t.Fatalf("partial k-nn with first-attempt fault: %v", err)
	}
	if failures == 0 {
		t.Fatal("fault hook never fired for OpSearch")
	}
	if res.Partial || len(res.Neighbors) != 5 {
		t.Fatalf("got %+v, want 5 complete neighbors after retry", res)
	}
}
