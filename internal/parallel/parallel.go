// Package parallel provides the worker-pool primitives shared by the batch
// paths: the OPTICS row evaluator, the feature-extraction pipeline and the
// voxel kernels, the live-update engine's build pools (bulk-insert
// validation, centroid recomputation during compaction — see DESIGN.md
// §8) and the server's query-slot count. Queries themselves run on their
// caller's goroutine. Every pool follows the same shape: a bounded set of
// workers sweeps a contiguous index range, each worker holding its own
// scratch, with results written into per-index slots so the outcome is
// independent of scheduling and bit-identical at any worker count.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
)

// EnvWorkers is the environment variable consulted when a worker count is
// not configured explicitly. Setting VOXSET_WORKERS=1 makes every pool
// sequential; a larger value sets every pool (and the server's query
// slots) to that width.
const EnvWorkers = "VOXSET_WORKERS"

// Workers resolves a worker count: an explicit configured value > 0 wins,
// else a positive VOXSET_WORKERS environment value, else fallback
// (clamped to ≥ 1). Batch paths such as OPTICS rows and extraction pass
// Auto(); the voxel kernels pass 1 (sequential unless asked for).
func Workers(configured, fallback int) int {
	if configured > 0 {
		return configured
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if fallback < 1 {
		return 1
	}
	return fallback
}

// Auto returns the default worker count for throughput-oriented paths:
// one worker per available CPU.
func Auto() int { return runtime.GOMAXPROCS(0) }

// Run invokes fn(worker) for worker ∈ [0, workers) concurrently and
// waits for all of them. workers ≤ 1 calls fn(0) inline. The worker
// index lets callers keep per-worker state (scratch workspaces,
// accumulators) without sharing.
func Run(workers int, fn func(worker int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// Chunk returns the half-open range [lo, hi) of the worker's contiguous
// share of n items (empty for surplus workers). Contiguous chunks keep
// each worker on neighboring objects — cache-friendly for the flat
// feature storage.
func Chunk(n, workers, worker int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	lo = worker * chunk
	hi = lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForEach calls fn(i) for every i in [0, n), splitting the range over at
// most workers goroutines and blocking until all calls return. fn must be
// safe for concurrent invocation when workers > 1; writes should go to
// per-index slots so results do not depend on scheduling.
func ForEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	Run(workers, func(w int) {
		lo, hi := Chunk(n, workers, w)
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
