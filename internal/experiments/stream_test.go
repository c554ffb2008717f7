package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

// TestStreamShardsMatchesBulkBuild pins the streaming builder to the
// materialized reference: StreamShards over an AircraftSource must
// produce a directory whose loaded cluster is indistinguishable from
// BuildClusterDB over the same dataset — memory-mapped shards with
// byte-identical durable state and byte-identical KNN answers.
func TestStreamShardsMatchesBulkBuild(t *testing.T) {
	const (
		seed   = 7
		n      = 60
		shards = 2
	)
	cfg := smallCfg()

	ref, err := BuildClusterDB(Aircraft, seed, n, cfg, cluster.Config{Shards: shards}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	dir := t.TempDir()
	m, err := StreamShards(cadgen.NewAircraftSource(seed, n), cfg, dir, StreamConfig{
		Shards:  shards,
		Workers: 2,
		Batch:   17, // force several pipeline rounds
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != shards || m.Dim != 6 || m.MaxCard != cfg.Covers {
		t.Fatalf("manifest geometry: %+v", m)
	}

	got, err := cluster.LoadDir(dir, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	if got.Len() != ref.Len() {
		t.Fatalf("object count: streamed %d, reference %d", got.Len(), ref.Len())
	}
	for i := 0; i < shards; i++ {
		if !got.Shard(i).Mapped() {
			t.Fatalf("streamed shard %d is not mmap-backed", i)
		}
		if got.Shard(i).Epoch() != ref.Shard(i).Epoch() {
			t.Fatalf("shard %d epoch: streamed %d, reference %d",
				i, got.Shard(i).Epoch(), ref.Shard(i).Epoch())
		}
		if !bytes.Equal(vsdbtest.Fingerprint(t, got.Shard(i)), vsdbtest.Fingerprint(t, ref.Shard(i))) {
			t.Fatalf("shard %d durable state diverges between streamed and bulk build", i)
		}
	}

	// Query transcripts must agree bit for bit.
	for qi := 0; qi < 5; qi++ {
		q := ref.Get(uint64(qi * 7))
		if q == nil {
			continue
		}
		rw, err := ref.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := got.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%v", rw.Neighbors)
		have := fmt.Sprintf("%v", rg.Neighbors)
		if want != have {
			t.Fatalf("query %d: streamed answers %s, reference %s", qi, have, want)
		}
	}
}

// TestStreamShardsRejectsBadConfig covers the argument guard.
func TestStreamShardsRejectsBadConfig(t *testing.T) {
	if _, err := StreamShards(cadgen.NewAircraftSource(1, 1), smallCfg(), t.TempDir(), StreamConfig{}); err == nil {
		t.Fatal("zero shard count accepted")
	}
}
