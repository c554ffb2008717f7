package cluster_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	c := newCluster(t, testConfig(3))
	populate(t, c, 50, 20)
	for id := uint64(2); id <= 20; id += 2 {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 || m.Dim != 3 || m.MaxCard != 3 || len(m.Epochs) != 3 {
		t.Fatalf("manifest = %+v", m)
	}
	for i, name := range m.Files {
		if name != snapshot.ShardSnapshotName(i) {
			t.Fatalf("manifest file %d = %q", i, name)
		}
		if v, err := snapshot.SniffFile(filepath.Join(dir, name)); err != nil || v != 2 {
			t.Fatalf("shard file %s: SniffFile = (%d, %v), want a paged snapshot", name, v, err)
		}
	}

	// Zero config fields adopt the manifest's values.
	re, err := cluster.LoadDir(dir, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.N() != 3 || re.Dim() != 3 || re.MaxCard() != 3 {
		t.Fatalf("reloaded shape: N=%d Dim=%d MaxCard=%d", re.N(), re.Dim(), re.MaxCard())
	}
	if re.Len() != c.Len() || re.Epoch() != c.Epoch() {
		t.Fatalf("reloaded Len/Epoch = %d/%d, want %d/%d", re.Len(), re.Epoch(), c.Len(), c.Epoch())
	}
	// Bit-exact per-shard state: the adopted Omega must be the saved one.
	for i := 0; i < 3; i++ {
		a, b := shardFingerprint(t, c.Shard(i)), shardFingerprint(t, re.Shard(i))
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d fingerprint differs after reload", i)
		}
	}
	before, err := c.KNN(chaosQuery, 7)
	if err != nil {
		t.Fatal(err)
	}
	after, err := re.KNN(chaosQuery, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d := vsdbtest.Diff(after.Neighbors, before.Neighbors); d != "" {
		t.Fatalf("reloaded query differs: %s", d)
	}
}

func TestLoadDirRefusesResharding(t *testing.T) {
	c := newCluster(t, testConfig(2))
	populate(t, c, 10, 21)
	dir := t.TempDir()
	if err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.LoadDir(dir, cluster.Config{Shards: 4}); err == nil ||
		!strings.Contains(err.Error(), "resharding") {
		t.Fatalf("width mismatch: %v", err)
	}
	if _, err := cluster.LoadDir(dir, cluster.Config{Dim: 7}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := cluster.LoadDir(t.TempDir(), cluster.Config{}); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

func TestLoadDirRejectsCorruptManifest(t *testing.T) {
	c := newCluster(t, testConfig(2))
	populate(t, c, 8, 22)
	dir := t.TempDir()
	if err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshot.ManifestName)
	if err := os.WriteFile(path, []byte(`{"version": 1, "shards": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.LoadDir(dir, cluster.Config{}); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("corrupt manifest: %v", err)
	}
}

// Checkpoint truncates every shard's WAL against the snapshot it wrote;
// recovery is snapshot + (empty) suffix and reproduces the exact state.
func TestCheckpointTruncatesShardWALs(t *testing.T) {
	walDir := t.TempDir()
	cfg := testConfig(3)
	cfg.WALDir = walDir
	c := newCluster(t, cfg)
	populate(t, c, 36, 23)
	if c.Stats().WALRecords != 36 {
		t.Fatalf("WAL records = %d, want 36", c.Stats().WALRecords)
	}
	snapDir := t.TempDir()
	if err := c.Checkpoint(snapDir); err != nil {
		t.Fatal(err)
	}
	if c.Stats().WALRecords != 0 {
		t.Fatalf("WAL records after checkpoint = %d, want 0", c.Stats().WALRecords)
	}
	for i := 0; i < 3; i++ {
		if v, err := snapshot.SniffFile(filepath.Join(snapDir, snapshot.ShardSnapshotName(i))); err != nil || v != 2 {
			t.Fatalf("shard %d checkpoint: SniffFile = (%d, %v), want a paged snapshot", i, v, err)
		}
	}
	// Mutations after the checkpoint land in the truncated logs...
	rng := rand.New(rand.NewSource(24))
	for id := uint64(100); id < 110; id++ {
		if err := c.Insert(id, randSet(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().WALRecords != 10 {
		t.Fatalf("WAL records after 10 post-checkpoint inserts = %d", c.Stats().WALRecords)
	}
	want := shardFingerprints(t, c)
	c.Close()
	// ...and recovery = sharded snapshot + WAL suffix.
	re, err := cluster.LoadDir(snapDir, cluster.Config{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 46 {
		t.Fatalf("recovered Len = %d, want 46", re.Len())
	}
	got := shardFingerprints(t, re)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("shard %d fingerprint differs after checkpoint recovery", i)
		}
	}
}

func shardFingerprints(t *testing.T, c *cluster.DB) [][]byte {
	t.Helper()
	out := make([][]byte, c.N())
	for i := range out {
		out[i] = shardFingerprint(t, c.Shard(i))
	}
	return out
}

func TestSaveDirFailsWithShardDown(t *testing.T) {
	c := newCluster(t, testConfig(2))
	populate(t, c, 8, 25)
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveDir(t.TempDir()); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("SaveDir with a shard down: %v", err)
	}
}

// Reopen prefers the sharded snapshot plus WAL suffix once a snapshot
// directory is known.
func TestReopenFromSnapshotDirAndWALSuffix(t *testing.T) {
	walDir := t.TempDir()
	cfg := testConfig(2)
	cfg.WALDir = walDir
	c := newCluster(t, cfg)
	populate(t, c, 20, 26)
	snapDir := t.TempDir()
	if err := c.Checkpoint(snapDir); err != nil {
		t.Fatal(err)
	}
	// Grow past the snapshot so Reopen must replay a real suffix.
	rng := rand.New(rand.NewSource(27))
	for id := uint64(200); id < 220; id++ {
		if err := c.Insert(id, randSet(rng)); err != nil {
			t.Fatal(err)
		}
	}
	const down = 1
	want := shardFingerprint(t, c.Shard(down))
	if err := c.Kill(down); err != nil {
		t.Fatal(err)
	}
	if err := c.Reopen(down); err != nil {
		t.Fatal(err)
	}
	if got := shardFingerprint(t, c.Shard(down)); !bytes.Equal(want, got) {
		t.Fatal("snapshot+suffix reopen fingerprint differs")
	}
}

// TestReopenFromSaveDirIsMapped: a shard killed after SaveDir comes back
// from its paged shard file memory-mapped, answering as before the kill.
func TestReopenFromSaveDirIsMapped(t *testing.T) {
	c := newCluster(t, testConfig(3))
	populate(t, c, 30, 29)
	if err := c.SaveDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	want, err := c.KNN(chaosQuery, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		if err := c.Kill(i); err != nil {
			t.Fatal(err)
		}
		if err := c.Reopen(i); err != nil {
			t.Fatal(err)
		}
		if !c.Shard(i).Mapped() {
			t.Fatalf("shard %d reopened from its snapshot is not memory-mapped", i)
		}
	}
	got, err := c.KNN(chaosQuery, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d := vsdbtest.Diff(got.Neighbors, want.Neighbors); d != "" {
		t.Fatalf("reopened shards answer differently: %s", d)
	}
}

// FromSnapshotFile scatters a monolithic snapshot across shards with
// query parity against the unsharded source. The VXSNAP01 row reads
// testdata/mono-v1.vsnap, written from exactly the source database below
// by the version-1 writer of an earlier build; FromSnapshotFile upgrades
// it in place on the way. A paged (VXSNAP02) source is memory-mapped
// while it is scattered and unmapped before FromSnapshotFile returns, so
// the reads after it also assert that BulkInsert deep-copied every set
// out of the mapping.
func TestFromSnapshotFile(t *testing.T) {
	src, err := vsdb.Open(vsdb.Config{Dim: 3, MaxCard: 3, Omega: testOmega})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	for id := uint64(1); id <= 40; id++ {
		if err := src.Insert(id, randSet(rng)); err != nil {
			t.Fatal(err)
		}
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "mono-v1.vsnap"))
	if err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(t.TempDir(), "mono.vsnap")
	if err := os.WriteFile(v1, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err := snapshot.SniffFile(v1); err != nil || v != 1 {
		t.Fatalf("fixture SniffFile = (%d, %v), want a version-1 stream", v, err)
	}
	paged := filepath.Join(t.TempDir(), "mono-paged.vsnap")
	if err := src.SaveFile(paged); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, path string }{{"VXSNAP01", v1}, {"VXSNAP02", paged}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := cluster.FromSnapshotFile(tc.path, cluster.Config{Shards: 3, Omega: testOmega})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Len() != 40 || c.Dim() != 3 || c.MaxCard() != 3 {
				t.Fatalf("scattered cluster: Len=%d Dim=%d MaxCard=%d", c.Len(), c.Dim(), c.MaxCard())
			}
			for _, id := range src.IDs() {
				if !reflect.DeepEqual(c.Get(id), src.Get(id)) {
					t.Fatalf("object %d differs from the source after the scatter", id)
				}
			}
			res, err := c.KNN(chaosQuery, 9)
			if err != nil {
				t.Fatal(err)
			}
			if d := vsdbtest.Diff(res.Neighbors, src.KNN(chaosQuery, 9)); d != "" {
				t.Fatalf("scattered cluster diverges from source: %s", d)
			}
		})
	}
	if v, err := snapshot.SniffFile(v1); err != nil || v != 2 {
		t.Fatalf("version-1 source after the scatter: SniffFile = (%d, %v), want upgraded in place", v, err)
	}
}
