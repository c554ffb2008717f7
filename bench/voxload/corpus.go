package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/cover"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vectorset"
)

// Extraction parameters of the standard dataset pipeline (core.DefaultConfig):
// cover grid r' = 15, k = 7 covers, 6-d cover features.
const (
	coverRes  = 15
	coverK    = 7
	coverDim  = 6
	variantSD = 0.5 // per-component jitter of a stored variant, in voxels
	querySD   = 0.3 // per-component jitter of a query or inserted set
)

// sizes fixes how much data one run builds. Two presets exist: the one the
// BENCHMARK.json numbers come from, and the -smoke one the harness's own
// test uses.
type sizes struct {
	parts    int // cadgen Aircraft parts extracted from CSG
	variants int // stored objects per part (the part itself + jittered copies)
	meshes   int // distinct STL uploads of mesh-upload
	listLen  int // requests generated per connection (cycled when exhausted)
	samples  int // requests per workload re-derived by the oracle
	calib    int // queries the range ε calibration samples
	setups   int // set-ups per untraced run; setup_s is their median
}

var (
	fullSizes  = sizes{parts: 1250, variants: 8, meshes: 256, listLen: 16384, samples: 64, calib: 256, setups: 3}
	smokeSizes = sizes{parts: 125, variants: 4, meshes: 16, listLen: 2048, samples: 16, calib: 32, setups: 1}
)

// corpus is the object collection every workload serves: id i holds sets[i].
type corpus struct {
	sets [][][]float64

	extractMSPerObject float64 // CSG → voxel grid → greedy covers, wall ms per part
}

// buildCorpus generates sz.parts Aircraft parts from the seed, runs the
// cover extraction of the dataset pipeline on each (normalized voxelization
// at r' = 15, greedy 7-cover sequence — the vector sets core.Engine.Extract
// stores, without its histogram models, which no served database uses) and
// stores every part sz.variants times: once as extracted, then as
// N(0, variantSD) jittered copies. The copies buy a database large enough
// for a k-nn to cost about a millisecond at a set-up time the run budget
// can afford three times over; variantSD = 0.5 keeps the median 10-nn
// distance and the filter's candidate ratio at what 4 000 extracted parts
// alone show (bench/README.md, "Corpus").
func buildCorpus(seed int64, sz sizes) *corpus {
	parts := cadgen.AircraftDataset(seed, sz.parts)
	start := time.Now()
	extracted := make([][][]float64, len(parts))
	parallel.ForEach(len(parts), runtime.GOMAXPROCS(0), func(i int) {
		g, _ := normalize.VoxelizeNormalized(parts[i].Solid, coverRes)
		extracted[i] = cover.Greedy(g, coverK).VectorSet()
	})
	c := &corpus{extractMSPerObject: ms(time.Since(start)) / float64(len(parts))}
	for _, s := range extracted {
		if len(s) > 0 { // a degenerate part has no covers; the pipeline skips it too
			c.sets = append(c.sets, s)
		}
	}
	base := len(c.sets)
	rng := rand.New(rand.NewSource(seed ^ 0x76617269616e74)) // "variant"
	for v := 1; v < sz.variants; v++ {
		for i := 0; i < base; i++ {
			c.sets = append(c.sets, jitter(rng, c.sets[i], variantSD))
		}
	}
	return c
}

// jitter returns a copy of set with N(0, sd) noise on every component.
func jitter(rng *rand.Rand, set [][]float64, sd float64) [][]float64 {
	out := make([][]float64, len(set))
	for i, v := range set {
		out[i] = make([]float64, len(v))
		for j, x := range v {
			out[i][j] = x + rng.NormFloat64()*sd
		}
	}
	return out
}

// writeShards writes the corpus as a sharded VXSNAP02 directory: objects
// routed with cluster.Route, one paged snapshot per shard and the manifest
// experiments.StreamShards writes. With shards == 1 the single shard file
// is also a complete single-database snapshot (voxserve -snapshot). It
// returns the bytes written.
func (c *corpus) writeShards(dir string, shards int) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	omega := make([]float64, coverDim)
	writers := make([]*snapshot.PagedWriter, shards)
	abort := func() {
		for _, w := range writers {
			if w != nil {
				w.Abort()
			}
		}
	}
	for i := range writers {
		w, err := snapshot.CreatePaged(filepath.Join(dir, snapshot.ShardSnapshotName(i)),
			snapshot.PagedWriterOptions{Dim: coverDim, MaxCard: coverK, Omega: omega})
		if err != nil {
			abort()
			return 0, err
		}
		writers[i] = w
	}
	epochs := make([]uint64, shards)
	for id, set := range c.sets {
		s := cluster.Route(uint64(id), shards)
		if err := writers[s].Append(uint64(id), vectorset.FlatFromRows(set)); err != nil {
			abort()
			return 0, fmt.Errorf("shard %d: %w", s, err)
		}
		epochs[s]++
	}
	m := &snapshot.Manifest{
		Version: snapshot.ManifestVersion,
		Shards:  shards,
		Dim:     coverDim,
		MaxCard: coverK,
		Omega:   omega,
		Epochs:  epochs,
		Files:   make([]string, shards),
	}
	var total int64
	for i, w := range writers {
		w.SetSeq(epochs[i]) // one sequence step per object, as a BulkInsert-built shard has
		writers[i] = nil
		if err := w.Finish(); err != nil {
			abort()
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		m.Files[i] = snapshot.ShardSnapshotName(i)
		st, err := os.Stat(filepath.Join(dir, m.Files[i]))
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	if err := snapshot.WriteManifest(dir, m); err != nil {
		return 0, err
	}
	return total, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
