package cluster_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/filter"
	"github.com/voxset/voxset/internal/vsdb"
)

// shardList is one shard's candidates as the coordinator's loop sees
// them: (dist, id)-sorted rows, each with its distance as its bound.
type shardList struct {
	rows []index.Neighbor
	next int
}

func (s *shardList) Next(threshold float64) (float64, int, bool) {
	if s.next == len(s.rows) || s.rows[s.next].Dist > threshold {
		return 0, 0, false
	}
	s.next++
	return s.rows[s.next-1].Dist, s.next - 1, true
}

func (s *shardList) Refine(pos int, threshold float64) (int, float64, bool) {
	nb := s.rows[pos]
	return nb.ID, nb.Dist, nb.Dist <= threshold
}

// Equal distances landing on different shards are the case the tie-break
// exists for: the coordinator walks every shard's stream in one
// filter.MultiStep, and the global order must break exact float ties by
// ascending id, no matter which shard contributed which row. k < 0 is a
// range with no bound on the distance.
func TestMergeTieBreak(t *testing.T) {
	n := func(id int, d float64) index.Neighbor { return index.Neighbor{ID: id, Dist: d} }
	cases := []struct {
		name  string
		lists [][]index.Neighbor
		k     int
		want  []index.Neighbor
	}{
		{
			name:  "tie across two shards, low id on second shard",
			lists: [][]index.Neighbor{{n(7, 1.5)}, {n(3, 1.5)}},
			k:     2,
			want:  []index.Neighbor{n(3, 1.5), n(7, 1.5)},
		},
		{
			name:  "tie truncated at k keeps the lower id",
			lists: [][]index.Neighbor{{n(7, 1.5)}, {n(3, 1.5)}},
			k:     1,
			want:  []index.Neighbor{n(3, 1.5)},
		},
		{
			name: "three-way tie across three shards",
			lists: [][]index.Neighbor{
				{n(20, 0.25), n(21, 2)},
				{n(5, 0.25)},
				{n(11, 0.25), n(12, 0.5)},
			},
			k:    4,
			want: []index.Neighbor{n(5, 0.25), n(11, 0.25), n(20, 0.25), n(12, 0.5)},
		},
		{
			name:  "zero distances tie (self-matches on different shards)",
			lists: [][]index.Neighbor{{n(9, 0)}, {n(2, 0), n(4, 0)}},
			k:     -1,
			want:  []index.Neighbor{n(2, 0), n(4, 0), n(9, 0)},
		},
		{
			name:  "distances differing only in the last ulp are not ties",
			lists: [][]index.Neighbor{{n(1, math.Nextafter(1, 2))}, {n(2, 1)}},
			k:     2,
			want:  []index.Neighbor{n(2, 1), n(1, math.Nextafter(1, 2))},
		},
		{
			name:  "k=0 returns nothing",
			lists: [][]index.Neighbor{{n(1, 1)}, {n(2, 2)}},
			k:     0,
			want:  nil,
		},
		{
			name:  "k beyond total returns everything",
			lists: [][]index.Neighbor{{n(1, 1)}, {}, {n(2, 2)}},
			k:     10,
			want:  []index.Neighbor{n(1, 1), n(2, 2)},
		},
		{
			name:  "empty inputs",
			lists: [][]index.Neighbor{{}, nil},
			k:     3,
			want:  nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			streams := make([]filter.Stream, len(tc.lists))
			for i, l := range tc.lists {
				streams[i] = &shardList{rows: l}
			}
			k := tc.k
			if k < 0 {
				k = math.MaxInt
			}
			got, err := filter.MultiStep(context.Background(), streams, k, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(got)+len(tc.want) > 0 && !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("k=%d: %v, want %v", tc.k, got, tc.want)
			}
		})
	}
}

// TestTieBreakPastSignedIDs: ids are uint64s, and a tie at one distance
// breaks by id as unsigned, so 1 ranks before 2⁶³+1 — for a k-nn and a
// range, over a delta memtable and a compacted base, on 1 shard and across
// 2. (The loop hands ids through int, where 2⁶³+1 is negative.)
func TestTieBreakPastSignedIDs(t *testing.T) {
	set := [][]float64{{1, 2, 3}, {-1, 0, 2}}
	ids := []uint64{1<<63 | 3, 1, 1<<63 | 1, 1<<63 | 2}
	want := []vsdb.Neighbor{{ID: 1}, {ID: 1<<63 | 1}, {ID: 1<<63 | 2}, {ID: 1<<63 | 3}}
	for _, shards := range []int{1, 2} {
		c := newCluster(t, cluster.Config{Shards: shards, Dim: 3, MaxCard: 2})
		split := false
		for _, id := range ids {
			if err := c.Insert(id, set); err != nil {
				t.Fatal(err)
			}
			split = split || c.ShardOf(id) != c.ShardOf(1)
		}
		if shards > 1 && !split {
			t.Fatal("every id on one shard: the tie never crosses shards")
		}
		for _, state := range []string{"delta", "compacted"} {
			if state == "compacted" {
				if err := c.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			ctx := fmt.Sprintf("shards=%d %s", shards, state)
			for _, k := range []int{1, 2, 4} {
				res, err := c.KNN(set, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Neighbors, want[:k]) {
					t.Errorf("%s: knn k=%d = %v, want %v", ctx, k, res.Neighbors, want[:k])
				}
			}
			res, err := c.Range(set, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Neighbors, want) {
				t.Errorf("%s: range = %v, want %v", ctx, res.Neighbors, want)
			}
		}
	}
}
