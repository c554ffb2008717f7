package experiments

import (
	"fmt"
	"os"

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

// LoadOrBuildSnapshot opens the snapshot at path if it exists; otherwise
// it builds the dataset, saves the snapshot to path, and returns the
// freshly built database. The boolean reports whether the snapshot was
// opened (true) or rebuilt (false) — the snapshot-backed dataset-build
// idiom: the first run pays the extraction cost, every later run maps
// the file and pays, under the tracker, only for the pages it touches.
func LoadOrBuildSnapshot(path string, d Dataset, seed int64, n int, cfg core.Config, workers int, tr *storage.Tracker) (*vsdb.DB, bool, error) {
	if _, err := os.Stat(path); err == nil {
		db, err := vsdb.OpenFile(path, vsdb.LoadOptions{Tracker: tr})
		if err != nil {
			return nil, false, fmt.Errorf("experiments: opening snapshot %s: %w", path, err)
		}
		return db, true, nil
	}
	db, err := BuildSnapshotDB(d, seed, n, cfg, workers, tr)
	if err != nil {
		return nil, false, err
	}
	if err := db.SaveFile(path); err != nil {
		return nil, false, err
	}
	return db, false, nil
}
