package cluster

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vsdb"
)

// Sharded persistence (DESIGN.md §9): one vsdb snapshot file per shard
// plus a JSON manifest (snapshot.Manifest) recording the shard count,
// the shared configuration and the per-shard epochs. The shard count is
// part of the data's identity — fnv(id) mod N placed every object — so
// LoadDir refuses a different width rather than silently misrouting.

func snapshotShardFile(i int) string { return snapshot.ShardSnapshotName(i) }

// SaveDir writes every shard's snapshot and the manifest into dir
// (created if missing). Each shard file is written atomically; the
// manifest goes last, so a torn SaveDir leaves either the previous
// manifest or a complete new one. The directory becomes the cluster's
// recovery source for Reopen.
func (c *DB) SaveDir(dir string) error {
	return c.saveDir(dir, false)
}

// Checkpoint is SaveDir followed by truncating every shard's WAL
// against the snapshot it just wrote — the sharded form of
// vsdb.Checkpoint, with the same crash story per shard: a crash between
// snapshot and truncation only means replaying records the snapshot
// already holds, which the sequence numbers skip.
func (c *DB) Checkpoint(dir string) error {
	return c.saveDir(dir, true)
}

func (c *DB) saveDir(dir string, truncate bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	m := &snapshot.Manifest{
		Version: snapshot.ManifestVersion,
		Shards:  len(c.shards),
		Dim:     c.cfg.Dim,
		MaxCard: c.cfg.MaxCard,
		Omega:   c.cfg.Omega,
		Epochs:  make([]uint64, len(c.shards)),
		Files:   make([]string, len(c.shards)),
	}
	for i := range c.shards {
		db := c.shards[i].db.Load()
		if db == nil {
			return fmt.Errorf("cluster: shard %d: %w", i, ErrShardDown)
		}
		path := filepath.Join(dir, snapshotShardFile(i))
		var err error
		if truncate {
			err = db.Checkpoint(path)
		} else {
			err = db.SaveFile(path)
		}
		if err != nil {
			return fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		m.Epochs[i] = db.Epoch()
		m.Files[i] = snapshotShardFile(i)
	}
	if err := snapshot.WriteManifest(dir, m); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.snapDir = dir
	return nil
}

// LoadDir opens the sharded snapshot directory written by SaveDir or
// Checkpoint. cfg.Shards, Dim, MaxCard and Omega may be zero to adopt
// the manifest's values; non-zero values must match it (resharding a
// persisted cluster is not supported — the routing function pins N).
// With cfg.WALDir set, each shard's log suffix beyond its snapshot
// epoch is replayed after the load.
func LoadDir(dir string, cfg Config) (*DB, error) {
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Shards == 0 {
		cfg.Shards = m.Shards
	} else if cfg.Shards != m.Shards {
		return nil, fmt.Errorf("cluster: directory %s holds %d shards, config wants %d (resharding is not supported)",
			dir, m.Shards, cfg.Shards)
	}
	if cfg.Dim == 0 {
		cfg.Dim = m.Dim
	} else if cfg.Dim != m.Dim {
		return nil, fmt.Errorf("cluster: manifest dim %d, config wants %d", m.Dim, cfg.Dim)
	}
	if cfg.MaxCard == 0 {
		cfg.MaxCard = m.MaxCard
	} else if cfg.MaxCard != m.MaxCard {
		return nil, fmt.Errorf("cluster: manifest max card %d, config wants %d", m.MaxCard, cfg.MaxCard)
	}
	if cfg.Omega == nil {
		cfg.Omega = m.Omega
	}
	return open(cfg, dir)
}

// FromSnapshotFile scatters a monolithic (unsharded) vsdb snapshot into
// a fresh cluster: every persisted object routes to its shard, in
// snapshot order, through BulkInsert. It is how voxserve -shards serves a
// single-file snapshot built by the unsharded pipeline. The source is
// opened with vsdb.OpenFile, so a legacy version-1 file is upgraded in
// place on the way.
func FromSnapshotFile(path string, cfg Config) (*DB, error) {
	src, err := vsdb.OpenFile(path, vsdb.LoadOptions{})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// A paged source serves its sets straight from the mapping. BulkInsert
	// deep-copies every set (and encodes the shipped frames) before it
	// returns, so nothing aliases the mapping once the source is closed.
	defer src.Close()
	if cfg.Dim == 0 {
		cfg.Dim = src.Dim()
	}
	if cfg.MaxCard == 0 {
		cfg.MaxCard = src.MaxCard()
	}
	if cfg.Omega == nil {
		// Adopt the source's weight reference so sharded distances stay
		// bit-identical to the snapshot's own answers.
		cfg.Omega = src.Omega()
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if c.Epoch() > 0 {
		// Per-shard WALs from a previous run already hold the scattered
		// objects (and every mutation since): the replayed state
		// supersedes the monolithic snapshot, and re-scattering would
		// resurrect objects the logs have deleted.
		return c, nil
	}
	ids := src.IDs()
	sets := make([][][]float64, len(ids))
	for i, id := range ids {
		sets[i] = src.Get(id)
	}
	if err := c.BulkInsert(ids, sets); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
