package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/cluster"
)

// BenchmarkClusterKNN measures k-nn as the shard count grows over a fixed
// corpus — the `make bench-cluster` shard-scaling experiment recorded in
// EXPERIMENTS.md: 4 096 jittered objects (512 parts × 8 copies), 1 024
// queries cycled, k = 10. Each query runs on one goroutine per shard
// visit, so the only variable is the sharding itself (coordination
// overhead and the threshold each shard is handed, against smaller
// per-shard scans). refined/op and solved/op
// are the shards' summed Refinements and Matchings per query: at one
// shard they are the unsharded engine's, and the coordinator's handed
// threshold keeps the wider rows from growing with the shard count.
func BenchmarkClusterKNN(b *testing.B) {
	ids, sets, queries := jitteredCorpus(99, 512, 8, 1024, 7)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := cluster.New(cluster.Config{Shards: shards, Dim: 6, MaxCard: 7})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.BulkInsert(ids, sets); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < shards; i++ {
				c.Shard(i).ResetRefinements()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.KNN(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := c.Stats()
			b.ReportMetric(float64(st.Refinements)/float64(b.N), "refined/op")
			b.ReportMetric(float64(st.Matchings)/float64(b.N), "solved/op")
		})
	}
}

// uniformCorpus draws n objects and q queries with cardinality 1..7 and
// components uniform in [0, 10) — the value range of normalized 6-d
// cover features.
func uniformCorpus(seed int64, n, q int) (ids []uint64, sets, queries [][][]float64) {
	rng := rand.New(rand.NewSource(seed))
	set := func() [][]float64 {
		s := make([][]float64, 1+rng.Intn(7))
		for i := range s {
			s[i] = make([]float64, 6)
			for j := range s[i] {
				s[i][j] = rng.Float64() * 10
			}
		}
		return s
	}
	ids = make([]uint64, n)
	sets = make([][][]float64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
		sets[i] = set()
	}
	queries = make([][][]float64, q)
	for i := range queries {
		queries[i] = set()
	}
	return ids, sets, queries
}

// BenchmarkReplication prices the replica tier (DESIGN.md §13) on 4 096
// objects over 2 shards, each with 2 followers tailing an unsynced
// per-shard WAL, follower reads on:
//
//   - follower-read: ns/op of a 10-nn that may land on any caught-up
//     replica (follower_share: the fraction of shard reads followers
//     served).
//   - steady-lag: one insert per op; lag_records is the worst follower's
//     lag behind its primary sampled after each acknowledgement (0:
//     shipping keeps pace with the insert stream).
//   - promotion: one Kill of a shard's primary per op, timed until the
//     most-caught-up follower serves; the killed member rejoins untimed.
//
// The sub-benchmarks share one cluster, in this order; steady-lag's
// inserts stay in it.
func BenchmarkReplication(b *testing.B) {
	ids, sets, queries := uniformCorpus(0x5eed6, 4096, 1024)
	c, err := cluster.New(cluster.Config{
		Shards: 2, Dim: 6, MaxCard: 7,
		WALDir: b.TempDir(), WALNoSync: true,
		Replicas: 2, FollowerReads: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	if err := c.BulkInsert(ids, sets); err != nil {
		b.Fatal(err)
	}
	drain := func(b *testing.B) {
		if err := c.WaitReplicaSync(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	drain(b)

	b.Run("follower-read", func(b *testing.B) {
		before := c.FollowerReadCount()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.KNN(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(c.FollowerReadCount()-before)/float64(b.N*c.N()), "follower_share")
	})

	next := uint64(len(ids) + 1)
	b.Run("steady-lag", func(b *testing.B) {
		var lag uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Insert(next, sets[i%len(sets)]); err != nil {
				b.Fatal(err)
			}
			next++
			lag += c.MaxReplicaLag()
		}
		b.StopTimer()
		b.ReportMetric(float64(lag)/float64(b.N), "lag_records")
		drain(b)
	})

	b.Run("promotion", func(b *testing.B) {
		var total time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shard := i % c.N()
			start := time.Now()
			if err := c.Kill(shard); err != nil {
				b.Fatal(err)
			}
			total += time.Since(start)
			b.StopTimer()
			if err := c.Reopen(shard); err != nil {
				b.Fatal(err)
			}
			drain(b)
			b.StartTimer()
		}
		b.ReportMetric(float64(total)/float64(b.N)/float64(time.Millisecond), "promotion_ms")
	})
}

// BenchmarkClusterInsert measures routed single-object ingestion.
func BenchmarkClusterInsert(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := cluster.New(testConfig(shards))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(7))
			sets := make([][][]float64, 1024)
			for i := range sets {
				sets[i] = randSet(rng)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Insert(uint64(i+1), sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
