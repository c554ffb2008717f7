package vsdb

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/dist"
)

func randQuerySet(rng *rand.Rand, card, dim int) [][]float64 {
	set := make([][]float64, card)
	for i := range set {
		set[i] = make([]float64, dim)
		for j := range set[i] {
			set[i][j] = rng.NormFloat64()
		}
	}
	return set
}

// buildSetQueryDB returns a database with n random objects: half bulk-
// loaded into the base, half inserted live (delta), with a few deletes
// (tombstones) — every representation layer a partial scan must cover.
func buildSetQueryDB(t *testing.T, n int) (*DB, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db, err := Open(Config{Dim: 3, MaxCard: 5})
	if err != nil {
		t.Fatal(err)
	}
	half := n / 2
	ids := make([]uint64, half)
	sets := make([][][]float64, half)
	for i := 0; i < half; i++ {
		ids[i], sets[i] = uint64(i), randQuerySet(rng, 1+rng.Intn(5), 3)
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	for i := half; i < n; i++ {
		if err := db.Insert(uint64(i), randQuerySet(rng, 1+rng.Intn(5), 3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{3, uint64(half + 2)} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return db, rng
}

// TestKNNSetMinimalEqualsKNN: the zero SetQuery is the plain engine.
func TestKNNSetMinimalEqualsKNN(t *testing.T) {
	db, rng := buildSetQueryDB(t, 60)
	defer db.Close()
	for trial := 0; trial < 10; trial++ {
		q := randQuerySet(rng, 1+rng.Intn(5), 3)
		if got, want := one(db, Query{Set: q, Kind: KNN, K: 7, Match: SetQuery{}}), db.KNN(q, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: k-nn with the zero Match %v != KNN %v", trial, got, want)
		}
		if got, want := one(db, Query{Set: q, Kind: Range, Eps: 2.5, Match: SetQuery{}}), db.Range(q, 2.5); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: range with the zero Match %v != Range %v", trial, got, want)
		}
	}
}

// TestKNNSetPartialAgainstReference: the partial scan must agree with a
// direct per-object evaluation over IDs() + Get(), sorted (dist, id).
func TestKNNSetPartialAgainstReference(t *testing.T) {
	db, rng := buildSetQueryDB(t, 50)
	defer db.Close()
	for trial := 0; trial < 8; trial++ {
		q := randQuerySet(rng, 2+rng.Intn(4), 3)
		for _, sq := range []SetQuery{
			{Partial: true},
			{Partial: true, I: 1},
			{Partial: true, I: 2},
			{Partial: true, I: 99}, // clamps to min(|q|, |obj|)
		} {
			want := make([]Neighbor, 0, db.Len())
			for _, id := range db.IDs() {
				set := db.Get(id)
				want = append(want, Neighbor{ID: id, Dist: dist.PartialMatching(q, set, dist.L2, sq.partialI(len(q), len(set)))})
			}
			sortNeighbors(want)
			k := 10
			if k > len(want) {
				k = len(want)
			}
			got := one(db, Query{Set: q, Kind: KNN, K: k, Match: sq})
			if !reflect.DeepEqual(got, want[:k]) {
				t.Fatalf("trial %d %+v: partial k-nn %v, reference %v", trial, sq, got, want[:k])
			}

			eps := want[len(want)/3].Dist
			wantRange := make([]Neighbor, 0)
			for _, nb := range want {
				if nb.Dist <= eps {
					wantRange = append(wantRange, nb)
				}
			}
			gotRange := one(db, Query{Set: q, Kind: Range, Eps: eps, Match: sq})
			if !reflect.DeepEqual(gotRange, wantRange) {
				t.Fatalf("trial %d %+v: partial range %v, reference %v", trial, sq, gotRange, wantRange)
			}
		}
	}
}

// TestKNNSetPartialEmptyAndEdge: empty queries and k = 0 are refused and k
// past the database size answers everything, like the other query paths.
func TestKNNSetPartialEmptyAndEdge(t *testing.T) {
	db, _ := buildSetQueryDB(t, 10)
	defer db.Close()
	if _, err := db.Search(context.Background(), []Query{{Set: nil, Kind: KNN, K: 5, Match: SetQuery{Partial: true}}}); err == nil {
		t.Fatal("empty query accepted")
	}
	q := [][]float64{{0, 0, 0}}
	if got := one(db, Query{Set: q, Kind: KNN, K: 1000, Match: SetQuery{Partial: true}}); len(got) != db.Len() {
		t.Fatalf("k beyond size: got %d results, want %d", len(got), db.Len())
	}
	if _, err := db.Search(context.Background(), []Query{{Set: q, Kind: KNN, K: 0, Match: SetQuery{Partial: true}}}); err == nil {
		t.Fatal("k=0 accepted")
	}
	// I=0 (auto) at i=min cardinality must rank the exact duplicate of a
	// stored set first at distance 0.
	stored := db.Get(db.IDs()[4])
	got := one(db, Query{Set: stored, Kind: KNN, K: 1, Match: SetQuery{Partial: true}})
	if len(got) != 1 || got[0].Dist != 0 {
		t.Fatalf("self query: got %v, want a distance-0 hit", got)
	}
}
