package experiments

import (
	"fmt"

	"github.com/voxset/voxset/internal/core"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vsdb"
)

// ParseDataset parses a dataset name ("car" or "aircraft").
func ParseDataset(name string) (Dataset, error) {
	switch name {
	case "car":
		return Car, nil
	case "aircraft":
		return Aircraft, nil
	}
	return 0, fmt.Errorf("experiments: unknown dataset %q (want car or aircraft)", name)
}

// BuildSnapshotDB runs the full ingest pipeline — dataset generation,
// parallel feature extraction, bulk insert — and returns a queryable
// database wired to the tracker. workers bounds the extraction pool
// (BuildParallel). It is the build half of the voxgen -snapshot /
// voxserve -dataset serving flow.
func BuildSnapshotDB(d Dataset, seed int64, n int, cfg core.Config, workers int, tr *storage.Tracker) (*vsdb.DB, error) {
	e, err := BuildParallel(cfg, d.Parts(seed, n), workers)
	if err != nil {
		return nil, err
	}
	return BuildVectorSetDB(e, tr)
}
