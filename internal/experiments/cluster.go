package experiments

import (
	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/core"
	"github.com/voxset/voxset/internal/storage"
)

// BuildClusterDBWith scatters an engine's extracted vector sets into a
// hash-sharded cluster — the sharded counterpart of BuildVectorSetDB,
// with the same 6-dimensional features and cover budget. ccfg carries
// the serving knobs (Shards, Partial, WALDir, fault policy…); its Dim,
// MaxCard and Tracker are filled in from the engine and the argument.
// The shard count is part of the resulting data's identity (routing is
// fnv(id) mod shards); queries against the cluster are bit-identical to
// the unsharded database built from the same engine.
func BuildClusterDBWith(e *core.Engine, ccfg cluster.Config, tr *storage.Tracker) (*cluster.DB, error) {
	cfg := e.Config()
	ccfg.Dim = 6
	ccfg.MaxCard = cfg.Covers
	ccfg.Tracker = tr
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	objs := e.Objects()
	ids := make([]uint64, 0, len(objs))
	sets := make([][][]float64, 0, len(objs))
	for _, o := range objs {
		if len(o.VSet) == 0 {
			continue
		}
		ids = append(ids, uint64(o.ID))
		sets = append(sets, o.VSet)
	}
	if err := c.BulkInsert(ids, sets); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// BuildClusterDB runs the full ingest pipeline — dataset generation,
// parallel feature extraction, bulk insert partitioned across shards —
// and returns a queryable sharded cluster. workers bounds the extraction
// pool (BuildParallel). It is the build half of the voxserve -shards
// serving flow.
func BuildClusterDB(d Dataset, seed int64, n int, cfg core.Config, ccfg cluster.Config, workers int, tr *storage.Tracker) (*cluster.DB, error) {
	e, err := BuildParallel(cfg, d.Parts(seed, n), workers)
	if err != nil {
		return nil, err
	}
	return BuildClusterDBWith(e, ccfg, tr)
}
