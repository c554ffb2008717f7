package recall

import (
	"context"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/degrade"
	"github.com/voxset/voxset/internal/vsdb"
)

const (
	degradedParts  = 48
	degradedR      = 15
	degradedCovers = 7
)

// searchOne is vsdb.DB.Search of one well-formed query under a context
// that never ends.
func searchOne(db *vsdb.DB, q vsdb.Query) []vsdb.Neighbor {
	out, err := db.Search(context.Background(), []vsdb.Query{q})
	if err != nil {
		panic(err)
	}
	return out[0]
}

func buildDegradedCatalog(t testing.TB) Catalog {
	t.Helper()
	parts := cadgen.AircraftDataset(4242, degradedParts)
	c := BuildCatalog(parts, degradedR, degradedCovers)
	if len(c.IDs) < degradedParts*9/10 {
		t.Fatalf("only %d of %d parts extracted non-degenerately", len(c.IDs), degradedParts)
	}
	return c
}

func newDegradedDB(t testing.TB, cat Catalog) *vsdb.DB {
	t.Helper()
	db, err := vsdb.Open(vsdb.Config{Dim: 6, MaxCard: degradedCovers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.BulkInsert(cat.IDs, cat.Sets); err != nil {
		t.Fatal(err)
	}
	return db
}

func newDegradedCluster(t testing.TB, shards int, cat Catalog) *cluster.DB {
	t.Helper()
	c, err := cluster.New(cluster.Config{Shards: shards, Dim: 6, MaxCard: degradedCovers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.BulkInsert(cat.IDs, cat.Sets); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDegradedOracleCroppedTopK is the scan-to-CAD oracle: query each
// part by a mildly cropped rescan of itself and require the true part
// in the top-10 under partial matching — at every shard count, with
// bit-identical neighbor lists across them.
func TestDegradedOracleCroppedTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a CAD catalog")
	}
	cat := buildDegradedCatalog(t)
	queries := DegradedQueries(cat, degradedCovers, degrade.Params{Kind: degrade.Crop, Severity: 0.1, Seed: 7})
	sq := vsdb.SetQuery{Partial: true, I: 4}

	var baseline [][]vsdb.Neighbor
	for _, shards := range []int{1, 4} {
		c := newDegradedCluster(t, shards, cat)
		answers := make([][]vsdb.Neighbor, len(queries))
		hits := 0
		for i, q := range queries {
			if q == nil {
				continue
			}
			res, err := c.Search(context.Background(), []vsdb.Query{{Set: q, Kind: vsdb.KNN, K: 10, Match: sq}})
			if err != nil {
				t.Fatalf("shards=%d query %d: %v", shards, i, err)
			}
			answers[i] = res[0].Neighbors
			for _, nb := range answers[i] {
				if nb.ID == cat.IDs[i] {
					hits++
					break
				}
			}
		}
		rec := float64(hits) / float64(len(queries))
		t.Logf("shards=%d: recall@10 = %.3f", shards, rec)
		if rec < 0.9 {
			t.Errorf("shards=%d: recall@10 = %.3f, want ≥ 0.9", shards, rec)
		}
		if baseline == nil {
			baseline = answers
		} else if !reflect.DeepEqual(answers, baseline) {
			t.Errorf("shards=%d: neighbor lists differ from the one-shard baseline", shards)
		}
	}
}

// TestDegradedPartialRecallModerateCrops: partial matching must still
// retrieve the true part from scans with a quarter of the volume cut
// away. Full minimal matching is measured alongside for the
// EXPERIMENTS.md comparison; no ordering between the two is asserted —
// at mild severities the crop often leaves most covers intact, so both
// modes sit near the ceiling.
func TestDegradedPartialRecallModerateCrops(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a CAD catalog")
	}
	cat := buildDegradedCatalog(t)
	db := newDegradedDB(t, cat)
	queries := DegradedQueries(cat, degradedCovers, degrade.Params{Kind: degrade.Crop, Severity: 0.25, Seed: 19})
	full := TruePartRecall(cat, queries, 10, db.KNN)
	partial := TruePartRecall(cat, queries, 10, func(q [][]float64, k int) []vsdb.Neighbor {
		return searchOne(db, vsdb.Query{Set: q, Kind: vsdb.KNN, K: k, Match: vsdb.SetQuery{Partial: true, I: 4}})
	})
	t.Logf("crop severity 0.25: full recall@10 = %.3f, partial(i=4) = %.3f", full, partial)
	if partial < 0.9 {
		t.Errorf("partial matching recall@10 = %.3f on 25%% crops, want ≥ 0.9", partial)
	}
}

// TestDegradedSeverityZeroDistanceZero: undamaged rescans are exact
// re-extractions, so the true part sits at distance exactly 0 in the
// result list. (recall@1 == 1 would be too strict: the synthetic
// catalog contains a few parts whose cover sets tie bit-for-bit, and
// ties at distance 0 rank by id.)
func TestDegradedSeverityZeroDistanceZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a CAD catalog")
	}
	cat := buildDegradedCatalog(t)
	db := newDegradedDB(t, cat)
	for _, kind := range degrade.Kinds {
		queries := DegradedQueries(cat, degradedCovers, degrade.Params{Kind: kind, Severity: 0, Seed: 1})
		for i, q := range queries {
			if q == nil {
				t.Fatalf("%s severity 0: query %d extracted empty", kind, i)
			}
			res := searchOne(db, vsdb.Query{Set: q, Kind: vsdb.KNN, K: 10, Match: vsdb.SetQuery{Partial: true}})
			found := false
			for _, nb := range res {
				if nb.ID == cat.IDs[i] && nb.Dist == 0 {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s severity 0: part %d not at distance 0 in top-10: %v", kind, cat.IDs[i], res)
			}
		}
	}
}
