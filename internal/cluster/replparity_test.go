package cluster_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb/vsdbtest"
)

// Replica-parity oracle: a replicated cluster — follower reads on, every
// query free to land on any caught-up replica — must stay bit-identical
// to the brute-force reference model across the full generated workload,
// for every shard width × replica count, with every query issued by one
// caller and by several at once (the subtests' "workers" label); and once
// shipping drains, every follower must answer byte-identically to its
// primary. Counterexamples shrink through the same ddmin machinery as
// the other oracles.

// runReplParityTrace replays ops against a replicated cluster and the
// reference model in lockstep. It creates (and removes) its own WAL
// directory so the shrinker can re-execute candidates hermetically.
func runReplParityTrace(ops []vsdbtest.Op, shards, replicas, callers int) error {
	walDir, err := os.MkdirTemp("", "voxset-replparity-*")
	if err != nil {
		return fmt.Errorf("mkdtemp: %w", err)
	}
	defer os.RemoveAll(walDir)
	cfg := testConfig(shards)
	cfg.WALDir = walDir
	cfg.WALNoSync = true
	cfg.Replicas = replicas
	cfg.FollowerReads = true
	c, err := cluster.New(cfg)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer c.Close()
	model := vsdbtest.NewModel(testOmega)
	for step, op := range ops {
		switch op.Kind {
		case vsdbtest.OpInsert:
			if err := c.Insert(op.ID, op.Set); err != nil {
				return fmt.Errorf("step %d %s: %w", step, op, err)
			}
			model.Insert(op.ID, op.Set)
		case vsdbtest.OpBulk:
			if err := c.BulkInsert(op.IDs, op.Sets); err != nil {
				return fmt.Errorf("step %d %s: %w", step, op, err)
			}
			for i, id := range op.IDs {
				model.Insert(id, op.Sets[i])
			}
		case vsdbtest.OpDelete:
			if err := c.Delete(op.ID); err != nil {
				return fmt.Errorf("step %d %s: %w", step, op, err)
			}
			model.Delete(op.ID)
		case vsdbtest.OpKNN, vsdbtest.OpRange:
			if d := checkTraceQuery(c, model, op, callers); d != "" {
				return fmt.Errorf("step %d %s: %s", step, op, d)
			}
		case vsdbtest.OpCompact:
			if err := c.Compact(); err != nil {
				return fmt.Errorf("step %d %s: %w", step, op, err)
			}
		}
	}
	if c.Len() != model.Len() {
		return fmt.Errorf("final Len = %d, model %d", c.Len(), model.Len())
	}
	// Lag drained, every follower's transcript must match its primary's
	// byte for byte on a fixed query battery.
	if err := c.WaitReplicaSync(10 * time.Second); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(4242))
	queries := make([][][]float64, 20)
	for i := range queries {
		queries[i] = randSetFrom(rng)
	}
	for i := 0; i < c.N(); i++ {
		primary := c.Shard(i)
		ptr := ""
		for step, q := range queries {
			ptr += fmt.Sprintf("%d:%v\n", step, primary.KNN(q, 8))
		}
		for r := 0; r <= replicas; r++ {
			db := c.ReplicaDB(i, r)
			if db == nil || db == primary {
				continue
			}
			ftr := ""
			for step, q := range queries {
				ftr += fmt.Sprintf("%d:%v\n", step, db.KNN(q, 8))
			}
			if ftr != ptr {
				return fmt.Errorf("shard %d replica %d transcript diverged from primary after sync:\nfollower:\n%s\nprimary:\n%s", i, r, ftr, ptr)
			}
		}
	}
	return nil
}

// randSetFrom mirrors randSet for a caller-held rng (package scope keeps
// the two generators' draws identical in shape).
func randSetFrom(rng *rand.Rand) [][]float64 {
	set := make([][]float64, 1+rng.Intn(3))
	for i := range set {
		set[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return set
}

func failReplParityTrace(t *testing.T, ops []vsdbtest.Op, shards, replicas, callers int, err error) {
	t.Helper()
	small := vsdbtest.Shrink(ops, func(cand []vsdbtest.Op) bool {
		return runReplParityTrace(cand, shards, replicas, callers) != nil
	}, 200)
	serr := runReplParityTrace(small, shards, replicas, callers)
	t.Fatalf("replica parity violated (shards=%d replicas=%d callers=%d): %v\nshrunk to %d ops (err: %v):\n%v",
		shards, replicas, callers, err, len(small), serr, small)
}

func TestReplicaParity(t *testing.T) {
	nOps := 5000
	if testing.Short() {
		nOps = 400
	}
	for _, shards := range []int{1, 4} {
		for _, replicas := range []int{1, 3} {
			for _, workers := range []int{1, 4} {
				shards, replicas, workers := shards, replicas, workers
				name := fmt.Sprintf("shards=%d/replicas=%d/workers=%d", shards, replicas, workers)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					ops := vsdbtest.GenTrace(1217, parityTraceOptions(nOps))
					if err := runReplParityTrace(ops, shards, replicas, workers); err != nil {
						failReplParityTrace(t, ops, shards, replicas, workers, err)
					}
				})
			}
		}
	}
}
