// Command voxserve serves a vector set database over HTTP (DESIGN.md §7):
// k-nn and ε-range queries under the minimal matching distance, answered
// by the extended-centroid filter pipeline — each query on its request's
// goroutine under the -timeout deadline, at most -workers of them at a
// time (the query slots) — with an LRU cache for repeated query objects
// and a /metrics endpoint exposing latency histograms, filter selectivity
// and the simulated page I/O of the paper's §5.4 cost model. Every mode
// serves through the cluster coordinator: a single database is a 1-shard
// cluster, so /cluster and the per-shard /metrics gauges answer in every
// mode.
//
// Usage:
//
//	voxserve -snapshot db.vsnap                          # serve a snapshot
//	voxserve -dataset car -covers 7 -save db.vsnap       # build, save, serve
//	voxserve -snapshot db.vsnap -wal db.wal              # live updates, durable
//	curl -s localhost:8080/knn -d '{"id": 3, "k": 5}'
//	curl -s localhost:8080/knn/batch -d '{"queries": [{"id": 3, "k": 5}, {"id": 4, "k": 5}]}'
//	curl -s localhost:8080/range -d '{"set": [[...]], "eps": 1.5}'
//	curl -s 'localhost:8080/query/mesh?k=5' --data-binary @part.stl
//	curl -s 'localhost:8080/query/mesh?k=5&dist=partial&i=4' --data-binary @scan.stl
//	curl -s localhost:8080/insert -d '{"id": 900, "set": [[...]]}'
//	curl -s localhost:8080/metrics
//
// /query/mesh is query-by-upload (DESIGN.md §14): the raw STL body is
// voxelized, normalized and reduced to its cover vector set server-side,
// then searched like any /knn or /range query. dist=partial ranks by the
// §4.1 partial matching distance (best i sub-vectors), the right mode
// for cropped or damaged scans; -max-mesh-mb caps the upload size.
//
// With -wal the database accepts live /insert, /delete and /compact
// requests (DESIGN.md §8): every mutation is appended to the write-ahead
// log before it becomes visible, and on restart the snapshot plus the
// log suffix reproduce the exact pre-crash state. -checkpoint rewrites
// the snapshot periodically and truncates the log.
//
// With -shards N the same routes serve a hash-sharded cluster (DESIGN.md
// §9): queries open N vsdb shards in turn and a k-nn refines their
// candidates in one bound order, with bit-identical results; mutations
// route to the owning shard, /cluster reports the shard topology and
// /metrics the per-shard gauges. -partial returns
// degraded (flagged) results when a shard fails instead of erroring;
// -wal-dir gives every shard its own durable log:
//
//	voxserve -dataset car -covers 7 -shards 4                # sharded build
//	voxserve -snapshot db.vsnap -shards 4 -partial           # scatter a snapshot
//	voxserve -dataset car -shards 4 -wal-dir ./wals          # durable shards
//	voxserve -snapshot-dir ./shards                          # voxgen -stream output
//	curl -s localhost:8080/cluster
//
// With -replicas R (needs -shards and -wal-dir) every shard becomes a
// replica set of R+1 members (DESIGN.md §13): the primary appends to the
// shard WAL and ships each acknowledged record to R followers, which
// replay it into standby databases. -follower-reads routes read-only
// requests round-robin across the primary and every caught-up follower
// (staleness bound -max-lag, in records; results are byte-identical
// regardless of which replica answers). When a primary dies the
// most-caught-up follower is promoted, stale-primary traffic is fenced
// by term numbers, and /cluster and /metrics report the replica
// topology, lag and promotion counts:
//
//	voxserve -dataset car -shards 4 -wal-dir ./wals -replicas 2 -follower-reads
//
// Every snapshot is a paged VXSNAP02 file — written by voxgen -snapshot
// or -stream, -save, -checkpoint, or snapshot.ConvertFile — memory-mapped
// and served in place; a legacy VXSNAP01 file is upgraded in place the
// first time it is opened. The listener comes up immediately in every
// mode; until the database (or every shard) has opened and the first
// epoch view is published, GET /healthz answers 503 with status
// "warming" and the data endpoints refuse, so orchestrators can
// distinguish a live-but-warming process from a dead one.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight queries
// drain before it exits.
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"syscall"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/core"
	"github.com/voxset/voxset/internal/experiments"
	"github.com/voxset/voxset/internal/server"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vsdb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("voxserve: ")
	var (
		snap    = flag.String("snapshot", "", "paged snapshot file to serve memory-mapped (written by voxgen -snapshot, voxserve -save, or vsdb.SaveFile; a legacy version-1 file is upgraded in place)")
		dataset = flag.String("dataset", "", "build the database from a generated dataset instead: car | aircraft")
		n       = flag.Int("n", 0, "aircraft dataset size (default 5000; ignored for car)")
		seed    = flag.Int64("seed", 42, "generator seed for -dataset")
		covers  = flag.Int("covers", 7, "cover budget k for -dataset extraction")
		save    = flag.String("save", "", "write the built database to this paged snapshot file before serving")
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "query slots: queries executing at once, each on one goroutine (0 = VOXSET_WORKERS, else one per CPU)")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		cache   = flag.Int("cache", 256, "LRU query cache entries (negative disables)")
		grace   = flag.Duration("grace", 10*time.Second, "graceful shutdown drain budget")
		wal     = flag.String("wal", "", "write-ahead log path: enables durable live updates (created if missing, replayed if present)")
		noSync  = flag.Bool("wal-nosync", false, "skip fsync after WAL appends (faster, loses the tail on power failure)")
		ckpt    = flag.Duration("checkpoint", 0, "with -wal: periodically snapshot the database and truncate the log (0 disables)")
		shards  = flag.Int("shards", 0, "serve a hash-sharded cluster of this many vsdb shards (0 = single database)")
		partial = flag.Bool("partial", false, "with -shards: degrade to flagged partial results when a shard fails instead of erroring")
		walDir  = flag.String("wal-dir", "", "with -shards: directory of per-shard write-ahead logs (created if missing, replayed if present)")
		reps    = flag.Int("replicas", 0, "with -shards and -wal-dir: followers per shard — each shard becomes a replica set of replicas+1 members with WAL shipping and failover promotion (0 disables)")
		folRead = flag.Bool("follower-reads", false, "with -replicas: serve read-only requests from caught-up followers too (round-robin; results are byte-identical)")
		maxLag  = flag.Uint64("max-lag", 0, "with -follower-reads: staleness bound in records behind the primary for a follower to serve reads (0 = fully caught-up only)")
		snapDir = flag.String("snapshot-dir", "", "sharded snapshot directory (voxgen -stream or cluster SaveDir) to serve as a cluster")
		meshMB  = flag.Int64("max-mesh-mb", 8, "cap on /query/mesh STL upload size in MiB (oversized bodies get 413)")
	)
	flag.Parse()

	var tr storage.Tracker
	sharded := *shards > 0 || *snapDir != ""
	ckptPath := *save
	if ckptPath == "" {
		ckptPath = *snap
	}
	switch {
	case sharded && (*save != "" || *wal != "" || *ckpt > 0):
		log.Fatal("-save, -wal and -checkpoint apply to single-database mode; with -shards use -wal-dir (per-shard logs)")
	case sharded && *reps > 0 && *walDir == "":
		log.Fatal("-replicas needs -wal-dir: the per-shard log is the durable copy failover recovers from")
	case !sharded && (*partial || *walDir != ""):
		log.Fatal("-partial and -wal-dir need -shards")
	case !sharded && (*reps > 0 || *folRead || *maxLag > 0):
		log.Fatal("-replicas, -follower-reads and -max-lag need -shards (and -wal-dir)")
	case *ckpt > 0 && (*wal == "" || ckptPath == ""):
		log.Fatal("-checkpoint needs -wal and a snapshot path (-snapshot or -save)")
	}

	// The listener comes up before the database: readiness (the first
	// epoch view) is published from the opener goroutine, and until then
	// /healthz answers 503 "warming" while every other route refuses.
	srv, err := server.NewWarming(server.Config{
		Workers:      *workers,
		Timeout:      *timeout,
		CacheSize:    *cache,
		MaxMeshBytes: *meshMB << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	cc := make(chan *cluster.DB, 1)
	go func() {
		var c *cluster.DB
		if sharded {
			c = openCluster(cluster.Config{
				Shards:        *shards,
				Partial:       *partial,
				WALDir:        *walDir,
				WALNoSync:     *noSync,
				Tracker:       &tr,
				Replicas:      *reps,
				FollowerReads: *folRead,
				MaxLag:        *maxLag,
			}, *snap, *snapDir, *dataset, *seed, *n, *covers)
		} else {
			db := openDB(*snap, *dataset, *seed, *n, *covers, *save, *wal, *noSync, &tr)
			c = cluster.Single(db)
			if *ckpt > 0 {
				go checkpoint(ctx, db, ckptPath, *ckpt)
			}
		}
		cc <- c
		if err := srv.Publish(server.Config{Cluster: c, Tracker: &tr}); err != nil {
			log.Fatal(err)
		}
		mode := "strict"
		if *partial {
			mode = "partial"
		}
		log.Printf("serving %d objects (%d shards, %s degradation, %d query slots, timeout %s)",
			c.Len(), c.N(), mode, srv.Workers(), *timeout)
	}()
	log.Printf("listening on %s (warming until the database is open)", *addr)
	if err := srv.ListenAndServe(ctx, *addr, *grace); err != nil {
		log.Fatal(err)
	}
	select {
	case c := <-cc:
		c.Close()
	default:
	}
	log.Print("drained, bye")
}

// openCluster builds or loads the hash-sharded cluster of -shards /
// -snapshot-dir mode.
func openCluster(ccfg cluster.Config, snap, snapDir, dataset string, seed int64, n, covers int) *cluster.DB {
	var c *cluster.DB
	var err error
	start := time.Now()
	switch {
	case snapDir != "" && (snap != "" || dataset != ""):
		log.Fatal("give -snapshot-dir, -snapshot or -dataset, not a combination")
	case snap != "" && dataset != "":
		log.Fatal("give -snapshot or -dataset, not both")
	case snapDir != "":
		// Shards open concurrently, paged (VXSNAP02) shard files by mmap;
		// the manifest supplies the geometry.
		if c, err = cluster.LoadDir(snapDir, ccfg); err != nil {
			log.Fatal(err)
		}
		log.Printf("opened %s: %d objects across %d shards in %s",
			snapDir, c.Len(), c.N(), time.Since(start).Round(time.Millisecond))
	case snap != "":
		if c, err = cluster.FromSnapshotFile(snap, ccfg); err != nil {
			log.Fatal(err)
		}
		log.Printf("scattered %s across %d shards: %d objects in %s",
			snap, ccfg.Shards, c.Len(), time.Since(start).Round(time.Millisecond))
	case dataset == "":
		log.Fatal("either -snapshot-dir, -snapshot or -dataset is required")
	default:
		d, perr := experiments.ParseDataset(dataset)
		if perr != nil {
			log.Fatal(perr)
		}
		cfg := core.DefaultConfig()
		cfg.Covers = covers
		if c, err = experiments.BuildClusterDB(d, seed, n, cfg, ccfg, 0, ccfg.Tracker); err != nil {
			log.Fatal(err)
		}
		log.Printf("built %s dataset across %d shards: %d objects in %s",
			dataset, ccfg.Shards, c.Len(), time.Since(start).Round(time.Second))
	}
	if ccfg.WALDir != "" {
		log.Printf("per-shard write-ahead logs in %s (cluster epoch %d)", ccfg.WALDir, c.Epoch())
	}
	if ccfg.Replicas > 0 {
		log.Printf("replica sets: %d followers per shard (follower reads %v, max lag %d records)",
			ccfg.Replicas, ccfg.FollowerReads, ccfg.MaxLag)
	}
	return c
}

// checkpoint snapshots db to path every interval, truncating its log,
// until ctx ends.
func checkpoint(ctx context.Context, db *vsdb.DB, path string, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			before := db.WALRecords()
			if err := db.Checkpoint(path); err != nil {
				log.Printf("checkpoint: %v", err)
				continue
			}
			log.Printf("checkpointed %d objects to %s (%d log records truncated)",
				db.Len(), path, before)
		}
	}
}

// openDB loads a snapshot or builds a dataset from the CSG generators,
// saves it to save and attaches the write-ahead log at wal when those are
// given.
func openDB(snap, dataset string, seed int64, n, covers int, save, wal string, noSync bool, tr *storage.Tracker) *vsdb.DB {
	var db *vsdb.DB
	start := time.Now()
	switch {
	case snap != "" && dataset != "":
		log.Fatal("give -snapshot or -dataset, not both")
	case snap != "":
		var err error
		if db, err = vsdb.OpenFile(snap, vsdb.LoadOptions{Tracker: tr}); err != nil {
			log.Fatal(err)
		}
		how := "read into memory, no mmap on this platform"
		if db.Mapped() {
			how = "memory-mapped, served in place"
		}
		log.Printf("opened %s: %d objects in %s (%s; tracked I/O %s)",
			snap, db.Len(), time.Since(start).Round(time.Millisecond), how,
			tr.IOTime(storage.PaperCostModel).Round(time.Millisecond))
	case dataset == "":
		log.Fatal("either -snapshot or -dataset is required")
	default:
		d, err := experiments.ParseDataset(dataset)
		if err != nil {
			log.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Covers = covers
		if db, err = experiments.BuildSnapshotDB(d, seed, n, cfg, 0, tr); err != nil {
			log.Fatal(err)
		}
		log.Printf("built %s dataset: %d objects in %s", dataset, db.Len(), time.Since(start).Round(time.Second))
	}
	if save != "" {
		if err := db.SaveFile(save); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved snapshot to %s", save)
	}
	if wal != "" {
		// Attaching after the build/load replays any existing log suffix,
		// so a restart resumes exactly where the last run stopped.
		before := db.Epoch()
		if err := db.AttachWAL(wal, vsdb.WALOptions{NoSync: noSync}); err != nil {
			log.Fatal(err)
		}
		log.Printf("write-ahead log %s attached at epoch %d (%d records replayed)",
			wal, db.Epoch(), db.Epoch()-before)
	}
	return db
}
