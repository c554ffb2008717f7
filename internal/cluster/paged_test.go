package cluster_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/snapshot"
)

// TestLoadDirPagedShards reloads a saved cluster directory, whose shard
// files SaveDir writes paged: every shard must come up memory-mapped with
// byte-identical durable state, and the cluster must keep serving
// mutations (which layer over the mapped bases).
func TestLoadDirPagedShards(t *testing.T) {
	const shards = 3
	c := newCluster(t, testConfig(shards))
	populate(t, c, 60, 5)
	dir := t.TempDir()
	if err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	want := shardFingerprints(t, c)

	re, err := cluster.LoadDir(dir, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < shards; i++ {
		db := re.Shard(i)
		if !db.Mapped() {
			t.Fatalf("shard %d is not mmap-backed after paged load", i)
		}
		got := shardFingerprint(t, db)
		if string(got) != string(want[i]) {
			t.Fatalf("shard %d durable state diverges after paged reload", i)
		}
	}
	if err := re.Insert(1000, [][]float64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if got := re.Get(1000); got == nil {
		t.Fatal("insert over mapped base not visible")
	}
}

// TestLoadDirCorruptShardPropagates damages one shard file among
// healthy ones: the parallel open must fail, name the broken shard, and
// release the shards that did open (no panic, no partial cluster).
func TestLoadDirCorruptShardPropagates(t *testing.T) {
	const shards = 4
	c := newCluster(t, testConfig(shards))
	populate(t, c, 40, 11)
	dir := t.TempDir()
	if err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, snapshot.ShardSnapshotName(2))
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[18] ^= 0xff // header page: geometry/CRC damage caught at open
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.LoadDir(dir, cluster.Config{}); err == nil {
		t.Fatal("LoadDir succeeded with a corrupt shard")
	} else if !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("error does not name the corrupt shard: %v", err)
	}
}
