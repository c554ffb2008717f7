package experiments

import (
	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/core"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vsdb"
)

// BuildParallel is the parallel dataset-ingest path: cadgen parts →
// voxelize → classify → cover extraction, spread over a bounded worker
// pool. workers 0 falls back to Config.Workers, then VOXSET_WORKERS,
// then one worker per CPU. Object ids follow the input part order and
// the extracted features are bit-identical at any worker count.
func BuildParallel(cfg core.Config, parts []cadgen.Part, workers int) (*core.Engine, error) {
	e, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.AddPartsWorkers(parts, workers)
	return e, nil
}

// BuildVectorSetDB loads the engine's vector set representations into a
// fresh vsdb database (ids = object ids), completing the paper pipeline
// voxelize → classify → cover → insert. Objects whose cover extraction
// produced an empty set (degenerate parts) are skipped. tr, if non-nil,
// is the database's I/O tracker, charged for query-time page accesses.
func BuildVectorSetDB(e *core.Engine, tr *storage.Tracker) (*vsdb.DB, error) {
	cfg := e.Config()
	db, err := vsdb.Open(vsdb.Config{
		Dim:     6,
		MaxCard: cfg.Covers,
		Tracker: tr,
	})
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
	if err := db.BulkInsert(ids, sets); err != nil {
		return nil, err
	}
	return db, nil
}
