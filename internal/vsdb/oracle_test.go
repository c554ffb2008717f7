package vsdb_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

// The randomized oracle layer: a long seeded schedule of interleaved
// Insert/BulkInsert/Delete/KNN/Range/Compact/Checkpoint/Reopen ops runs
// against the live engine and, in lockstep, against a brute-force
// reference model (a plain map scanned exhaustively per query). Every
// query must match the model bit for bit — same (dist, id) pairs in the
// same order — for every concurrent caller, through every compaction, and
// across every crash-shaped reopen (snapshot + WAL-suffix replay). On a
// mismatch the failing schedule is shrunk (ddmin-style, bounded) before
// it is dumped, so the counterexample is readable. The trace generator,
// model and shrinker live in vsdbtest, shared with the cluster
// cross-shard parity oracle.

// runOracleTrace executes ops against a fresh WAL-backed database in
// dir, verifying every query — issued by callers concurrent callers at
// once — against the model. It returns the index and description of the
// first mismatch (-1 if the trace passes).
func runOracleTrace(t *testing.T, ops []vsdbtest.Op, callers int, dir string) (int, string) {
	t.Helper()
	const dim, maxCard = 3, 3
	cfg := vsdb.Config{
		Dim:     dim,
		MaxCard: maxCard,
		Omega:   []float64{0.25, -0.5, 1},
		// Small delta threshold so long traces cross many compactions.
		MaxDelta:  64,
		WALPath:   filepath.Join(dir, "oracle.wal"),
		WALNoSync: true,
	}
	snapPath := filepath.Join(dir, "oracle.vsnap")
	db, err := vsdb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	model := vsdbtest.NewModel(cfg.Omega)
	haveSnap := false

	for i, op := range ops {
		switch op.Kind {
		case vsdbtest.OpInsert:
			if err := db.Insert(op.ID, op.Set); err != nil {
				return i, fmt.Sprintf("insert(%d): %v", op.ID, err)
			}
			model.Insert(op.ID, op.Set)
		case vsdbtest.OpBulk:
			if err := db.BulkInsert(op.IDs, op.Sets); err != nil {
				return i, fmt.Sprintf("bulk(%v): %v", op.IDs, err)
			}
			for j, id := range op.IDs {
				model.Insert(id, op.Sets[j])
			}
		case vsdbtest.OpDelete:
			if err := db.Delete(op.ID); err != nil {
				return i, fmt.Sprintf("delete(%d): %v", op.ID, err)
			}
			model.Delete(op.ID)
		case vsdbtest.OpKNN:
			want := model.KNN(op.Set, op.K)
			if msg := vsdbtest.Concurrently(callers, func() string {
				return vsdbtest.Diff(db.KNN(op.Set, op.K), want)
			}); msg != "" {
				return i, fmt.Sprintf("knn(k=%d): %s", op.K, msg)
			}
		case vsdbtest.OpRange:
			want := model.Range(op.Set, op.Eps)
			if msg := vsdbtest.Concurrently(callers, func() string {
				return vsdbtest.Diff(db.Range(op.Set, op.Eps), want)
			}); msg != "" {
				return i, fmt.Sprintf("range(eps=%g): %s", op.Eps, msg)
			}
		case vsdbtest.OpCompact:
			db.Compact()
		case vsdbtest.OpCheckpoint:
			if err := db.Checkpoint(snapPath); err != nil {
				return i, fmt.Sprintf("checkpoint: %v", err)
			}
			haveSnap = true
		case vsdbtest.OpReopen:
			if err := db.Close(); err != nil {
				return i, fmt.Sprintf("close: %v", err)
			}
			if haveSnap {
				db, err = vsdb.OpenFile(snapPath, vsdb.LoadOptions{
					MaxDelta: cfg.MaxDelta, WALPath: cfg.WALPath, WALNoSync: true,
				})
			} else {
				db, err = vsdb.Open(cfg)
			}
			if err != nil {
				return i, fmt.Sprintf("reopen: %v", err)
			}
			// Full-state audit after the crash-shaped restart.
			if db.Len() != model.Len() {
				return i, fmt.Sprintf("reopen: %d objects, model has %d", db.Len(), model.Len())
			}
			for _, id := range model.Order() {
				if db.Get(id) == nil {
					return i, fmt.Sprintf("reopen: id %d lost", id)
				}
			}
		}
		// Cheap standing invariants.
		if db.Len() != model.Len() {
			return i, fmt.Sprintf("Len() = %d, model has %d", db.Len(), model.Len())
		}
	}
	return -1, ""
}

// shrinkOracleTrace wraps vsdbtest.Shrink with a rerun-in-fresh-dir
// failure predicate.
func shrinkOracleTrace(t *testing.T, ops []vsdbtest.Op, callers int, budget int) []vsdbtest.Op {
	t.Helper()
	return vsdbtest.Shrink(ops, func(trace []vsdbtest.Op) bool {
		idx, _ := runOracleTrace(t, trace, callers, t.TempDir())
		return idx >= 0
	}, budget)
}

func oracleTraceOptions(nOps int) vsdbtest.TraceOptions {
	return vsdbtest.TraceOptions{NOps: nOps, Dim: 3, MaxCard: 3, Persist: true}
}

// TestOracleRandomSchedule is the acceptance oracle: a ~10k-op seeded
// random schedule (≈2k with -short) matches the brute-force model
// exactly with every query issued by 1, 4 and 8 concurrent callers (the
// subtests keep the "workers" label of the days when the count was of
// refinement workers, so their names stay comparable across history).
func TestOracleRandomSchedule(t *testing.T) {
	nOps := 10000
	if testing.Short() {
		nOps = 2000
	}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			ops := vsdbtest.GenTrace(20030604, oracleTraceOptions(nOps))
			idx, msg := runOracleTrace(t, ops, workers, t.TempDir())
			if idx < 0 {
				return
			}
			t.Logf("schedule failed at op %d (%s): %s — shrinking", idx, ops[idx], msg)
			small := shrinkOracleTrace(t, ops[:idx+1], workers, 64)
			for i, op := range small {
				t.Logf("  shrunk[%d] %s", i, op)
			}
			t.Fatalf("oracle mismatch at op %d: %s (shrunk to %d ops above)", idx, msg, len(small))
		})
	}
}

// TestOracleSeeds runs shorter schedules across several seeds so the op
// mix hits different interleavings of compaction, checkpointing and
// reopening.
func TestOracleSeeds(t *testing.T) {
	nOps := 600
	if testing.Short() {
		nOps = 150
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := vsdbtest.GenTrace(seed, oracleTraceOptions(nOps))
			if idx, msg := runOracleTrace(t, ops, 1+int(seed%4), t.TempDir()); idx >= 0 {
				small := shrinkOracleTrace(t, ops[:idx+1], 1+int(seed%4), 48)
				for i, op := range small {
					t.Logf("  shrunk[%d] %s", i, op)
				}
				t.Fatalf("oracle mismatch at op %d (%s): %s", idx, ops[idx], msg)
			}
		})
	}
}
