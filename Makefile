# Tier-1 gate: `make check` is the canonical pre-merge verification —
# vet, build, race-enabled tests, and a short benchmark smoke run.
GO ?= go

.PHONY: check vet build test race check-race check-env check-bench bench bench-smoke bench-voxel bench-cluster fuzz-smoke

check: vet build check-race check-env check-bench fuzz-smoke bench-smoke bench-voxel

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Quick race gate: -short skips the full-dataset reproductions (race
# instrumentation slows them 10-20×), keeping the loop about concurrency.
race:
	$(GO) test -race -short -timeout 30m ./...

# Full race gate (~4-5 min): every test — including the snapshot
# round-trips, the voxserve shutdown hammer and the experiment suites —
# under the race detector. This is what `check` runs pre-merge, and the
# only race gate: it selects by package, not by test name, so the
# cluster parity/chaos, replication failover and degraded-query suites
# cannot fall out of it by being renamed.
check-race:
	$(GO) test -race -timeout 60m ./...

# Environment gate: every query runs on its caller's goroutine, so the
# engine's answers and counters must not depend on VOXSET_WORKERS, which
# sizes only the batch pools (extraction, OPTICS, bulk-insert validation,
# compaction) and the server's query slots. Running the engine packages
# under a width other than the default keeps a parallel query path from
# quietly coming back.
check-env:
	VOXSET_WORKERS=4 $(GO) test ./internal/index/... ./internal/vsdb/... ./internal/cluster/... ./internal/server/... ./internal/meshquery/ ./internal/recall/ .

# Benchmark build gate: bench/ is a module of its own (it links against
# internal/... through a replace), so `go test ./...` here never compiles
# it — and a broken bench build would otherwise surface only as a 100 %
# failed benchmark run.
check-bench:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fuzz smoke: every decoder fuzzer for a few seconds each, on top of
# the checked-in seed corpora. Catches framing/CRC regressions in the
# paged and legacy snapshot readers, the WAL Reader, and the STL and
# vector-set codecs without a long fuzz session —
# plus the scatter-gather merge's identity with sort-and-truncate, the
# threshold-aware matching kernel's contract against the unbounded one, the
# signature bound's chain (encoded ≤ exact ≤ matching distance, and the
# integer test never pruning where the exact bound is within threshold), the
# engine's refusal of non-finite sets — stored (FuzzInsertFinite) and
# queried (FuzzSearchFinite: NaN, ±Inf and wrong dimensions must fail
# Search with an error under a 1 s deadline, never panic or run out the
# clock) — and the pruned cover search's contract against the unpruned
# scan.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzMatchingWithin -fuzztime 5s ./internal/dist/
	$(GO) test -run xxx -fuzz FuzzSignatureBound -fuzztime 5s ./internal/dist/
	$(GO) test -run xxx -fuzz FuzzInsertFinite -fuzztime 5s ./internal/vsdb/
	$(GO) test -run xxx -fuzz FuzzSearchFinite -fuzztime 5s ./internal/vsdb/
	$(GO) test -run xxx -fuzz FuzzSTLParse -fuzztime 5s ./internal/mesh/
	$(GO) test -run xxx -fuzz FuzzQueryMesh -fuzztime 5s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzReadFrom -fuzztime 5s ./internal/vectorset/
	$(GO) test -run xxx -fuzz FuzzSnapshotDecode -fuzztime 5s ./internal/snapshot/
	$(GO) test -run xxx -fuzz FuzzPagedOpen -fuzztime 5s ./internal/snapshot/
	$(GO) test -run xxx -fuzz FuzzWALReplay -fuzztime 5s ./internal/wal/
	$(GO) test -run xxx -fuzz FuzzClusterMerge -fuzztime 5s ./internal/cluster/
	$(GO) test -run xxx -fuzz FuzzReplicaStreamDecode -fuzztime 5s ./internal/replica/
	$(GO) test -run xxx -fuzz FuzzMaxSubCuboid -fuzztime 5s ./internal/cover/

# Quick benchmark smoke: the zero-allocation matching kernel, the
# sharded k-nn at 1, 2 and 4 shards (the knn-exact, write-mix and
# sharded-cached topologies; refined/query and solved/query must match
# across the rows, because the coordinator walks every shard's candidates
# in one bound order), and one pass of each measurement
# EXPERIMENTS.md records from a benchmark table rather than from voxload:
# the scan-to-CAD degraded-recall sweep and the replication gauges
# (follower-read latency, shipping lag, promotion time). The vsdb pair
# puts a mutated view (128 delta entries, 32 tombstones) beside the same
# state compacted — refined/op and ns/op must stay close; a regression to
# over-fetch + full delta scan doubles the first row — and reports the
# allocation footprint of one compaction. The kernel rows price the three
# exits of the threshold-aware matching (pruned ≪ survivor ≈ unbounded)
# beside SignatureBound, the per-candidate price of the signature stage
# that settles most candidates before the kernel (/int the integer test
# the engines run, /float its reference, /quantize the per-block query
# preparation); FilterKNN reports signature-pruned/op and refined/op
# beside solves/op over 10 k sets: a regression to always-solve makes the
# last two equal (/store is the served shape, NewBulkStore ranking the
# blocked centroid column with the signature stage; /dynamic the paper's
# X-tree path). CentroidRanking prices the ranking seam alone, blocked
# column against bulk-loaded tree at 10 k and 100 k centroids, on random
# parts and on voxload-shaped families (clustered-*), with allocs/op (0
# for the column), the tracker's pages/op and the blocks/op a query read
# (a regression to whole-column passes reads every block); BlockLayout
# prices the layout the first ranking builds. MeshExtract prices a mesh
# upload's parse, voxelize and cover stages over the 256 STL bodies the
# mesh-upload workload sends, GreedyR15K7 the cover extraction over 64
# corpus-built grids; both cycle inputs so no branch pattern is learned.
bench-smoke:
	$(GO) test -run xxx -bench 'Ablation_Matching(Hungarian|Pooled)K7|ShardedKNN' -benchtime 200x .
	$(GO) test -run xxx -bench 'MatchingWithin|SignatureBound' -benchtime 20000x -benchmem ./internal/dist/
	$(GO) test -run xxx -bench 'FilterKNN|CentroidRanking' -benchtime 200x -benchmem ./internal/index/filter/
	$(GO) test -run xxx -bench 'BlockLayout' -benchtime 5x -benchmem ./internal/index/filter/
	$(GO) test -run xxx -bench 'SearchMutatedView|Compact$$' -benchtime 100x -benchmem ./internal/vsdb/
	$(GO) test -run xxx -bench 'DegradedRecall' -benchtime 1x ./internal/recall/
	$(GO) test -run xxx -bench 'Replication' -benchtime 1x ./internal/cluster/
	$(GO) test -run xxx -bench 'MeshExtract' -benchtime 1024x -benchmem ./internal/meshquery/
	$(GO) test -run xxx -bench 'GreedyR15K7' -benchtime 256x -benchmem ./internal/cover/

# Voxel-kernel and ingest smoke: word-parallel morphology vs the
# per-voxel references, voxelization, one object extraction pass, and the
# benchmark corpus's extraction (IngestAircraft: every one of its 1 250
# parts once, with CSG membership tests and the voxelize/cover split per
# part; the voxelizers test only cells inside a solid's declared box, so
# tests/part reads ≈ 7 k, not the ≈ 97 k of a sweep over the whole cube).
bench-voxel:
	$(GO) test -run xxx -bench 'Surface|FillCavities|Components|Voxelize' -benchtime 20x ./internal/voxel/
	$(GO) test -run xxx -bench 'IngestObject' -benchtime 5x .
	$(GO) test -run xxx -bench 'IngestAircraft' -benchtime 1250x -benchmem .

# Shard-scaling benchmark: coordinated k-nn over a fixed corpus at
# 1/2/4/8 shards (EXPERIMENTS.md records the numbers).
bench-cluster:
	$(GO) test -run xxx -bench 'ClusterKNN' -benchtime 50x ./internal/cluster/

# Full benchmark sweep (slow; reproduces every table/figure metric).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...
