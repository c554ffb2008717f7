// Package cluster shards a vsdb vector set database horizontally and
// coordinates queries across the shards (DESIGN.md §9) — the first step
// of the ROADMAP's "heavy traffic" scaling track. Objects route to
// shards by fnv(id) mod N; each shard is a full vsdb.DB owning its own
// epoch views, write-ahead log and snapshot. A query opens every shard in
// turn, then runs one multi-step loop over the shards' candidate streams
// in a single bound order against one threshold (the k-th distance, ε),
// so the shards together refine what one database would. Results are
// bit-identical to an unsharded database holding the same objects — the
// cross-shard parity oracle asserts exactly that.
// Mutations route to the owning shard, preserving durable-before-visible
// per shard.
//
// Every operation runs on its caller's goroutine. A query carries the
// caller's context: each shard attempt runs under a per-shard deadline
// derived from it, the candidate walk under the caller's alone, and when
// the caller's context ends Search returns its error. Failures degrade
// gracefully: shard attempts retry with backoff, and an injectable
// FaultPolicy can stall a shard or fail an attempt, or the shard can be
// crash-killed and reopened (replaying its WAL). In strict mode a shard
// failure fails the whole query; in partial mode the merged survivors are
// returned with a Partial flag and per-shard error detail.
//
// Single serves one already-opened database as a 1-shard cluster, so a
// server has one backend in every mode.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/replica"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/wal"
)

// Defaults for the degradation knobs (0 in Config selects them;
// negative disables where noted).
const (
	// DefaultShardTimeout bounds one shard-local operation attempt.
	DefaultShardTimeout = 5 * time.Second
	// DefaultRetries is the number of re-attempts after a retryable
	// shard failure (injected faults always; timeouts on read-only ops).
	DefaultRetries = 2
	// DefaultBackoff is the wait before the first retry; it doubles per
	// further attempt.
	DefaultBackoff = 2 * time.Millisecond
)

// Failure classes, wrapped with the shard index; test with errors.Is.
var (
	// ErrShardDown reports an operation against a killed shard that has
	// not been reopened.
	ErrShardDown = errors.New("shard down")
	// ErrShardTimeout reports a shard-local attempt that outran its
	// per-shard deadline (Config.ShardTimeout) while the caller's own
	// context was still live (a stalled shard, under fault injection).
	ErrShardTimeout = errors.New("shard timed out")
)

// Config parameterizes a sharded cluster. Dim, MaxCard, Omega, MaxDelta
// and CompactRatio have vsdb.Config semantics and apply to every shard.
type Config struct {
	// Shards is the number of shards N (≥ 1). The routing function is
	// fnv(id) mod N, so N is part of the data's identity: a persisted
	// cluster reopens only at the same width.
	Shards int

	Dim          int
	MaxCard      int
	Omega        []float64
	MaxDelta     int
	CompactRatio float64
	// Tracker, if non-nil, is shared by every shard (it is safe for
	// concurrent use), so cost-model accounting stays cluster-wide.
	Tracker *storage.Tracker

	// WALDir, if non-empty, gives every shard a write-ahead log named
	// wal.ShardLogName(i) inside it: mutations are durable before
	// visible per shard, and New replays any existing logs (so New on a
	// populated WALDir is crash recovery).
	WALDir string
	// WALNoSync skips the fsync per mutation batch.
	WALNoSync bool

	// Partial selects the degraded-query mode: false (strict) fails a
	// query on any shard failure; true returns the merged survivors
	// with Result.Partial set and per-shard error detail. Flippable at
	// runtime with SetPartial.
	Partial bool
	// ShardTimeout bounds one shard-local attempt — the fault hook plus
	// the shard's Open or mutation — as a deadline under the caller's
	// context (0 means DefaultShardTimeout). A query's candidate walk runs
	// after every shard is open, under the caller's deadline alone.
	ShardTimeout time.Duration
	// Retries is the number of re-attempts after a retryable failure
	// (0 means DefaultRetries; negative disables retrying).
	Retries int
	// Backoff is the wait before the first retry, doubling per further
	// attempt (0 means DefaultBackoff).
	Backoff time.Duration
	// Fault, if non-nil, is consulted before every shard-local attempt
	// (fault injection for chaos tests and resilience drills).
	Fault FaultPolicy

	// Replicas is the number of followers per shard (0 disables
	// replication). With R > 0 every shard is a replica set of R+1
	// members: a primary owning the shard WAL and R followers tailing
	// its mutations as shipped records (DESIGN.md §13). Requires WALDir
	// — the primary's log is the durable copy failover recovers from.
	Replicas int
	// FollowerReads routes read-only shard attempts round-robin across
	// the primary and every caught-up follower (lag ≤ MaxLag). Routing
	// never changes results, only which replica computes them.
	// Flippable at runtime with SetFollowerReads.
	FollowerReads bool
	// MaxLag is the staleness bound for follower reads, in records
	// behind the primary's epoch (0 = only fully caught-up followers).
	MaxLag uint64
	// ReplicaTransport, if non-nil, wraps each follower's ship
	// transport (chaos injection: delaying, dropping or duplicating
	// frames). nil ships directly.
	ReplicaTransport func(shard, replica int, next replica.Transport) replica.Transport
}

func (c Config) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("cluster: Shards must be ≥ 1, got %d", c.Shards)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("cluster: Replicas must be ≥ 0, got %d", c.Replicas)
	}
	if c.Replicas > 0 && c.WALDir == "" {
		return errors.New("cluster: Replicas > 0 requires WALDir (the shard WAL is the durable copy failover recovers from)")
	}
	// Dim/MaxCard/Omega are validated by the per-shard vsdb.Open.
	return nil
}

func (c Config) shardTimeout() time.Duration {
	if c.ShardTimeout == 0 {
		return DefaultShardTimeout
	}
	return c.ShardTimeout
}

func (c Config) retries() int {
	if c.Retries == 0 {
		return DefaultRetries
	}
	if c.Retries < 0 {
		return 0
	}
	return c.Retries
}

func (c Config) backoff() time.Duration {
	if c.Backoff <= 0 {
		return DefaultBackoff
	}
	return c.Backoff
}

// shard is one member: the database behind an atomic pointer (nil while
// the shard is down) plus its serving statistics. db always points at
// the shard's current primary; with replication the same database is
// also member rs.primary of the replica set.
type shard struct {
	db        atomic.Pointer[vsdb.DB]
	downEpoch atomic.Uint64 // epoch at kill time, keeps aggregates sane
	rs        *replicaSet   // nil when Config.Replicas == 0

	queries  atomic.Int64
	errors   atomic.Int64
	timeouts atomic.Int64
	retries  atomic.Int64
	latNS    atomic.Int64
	latN     atomic.Int64
}

// DB is a hash-sharded cluster of vsdb databases with one query
// coordinator that opens the shards in turn (Search). Safe for
// concurrent use; per-shard mutation ordering is vsdb's (single writer
// per shard), and queries are lock-free against each shard's immutable
// views.
type DB struct {
	cfg           Config
	shards        []shard
	partial       atomic.Bool
	followerReads atomic.Bool
	promotions    atomic.Int64

	// mu serializes topology changes (Kill, Reopen) and persistence.
	mu sync.Mutex
	// snapDir is the sharded snapshot directory Reopen recovers from
	// (set by LoadDir, SaveDir and Checkpoint; empty means WAL-only
	// recovery).
	snapDir string
	// single marks a cluster built by Single over a caller's database: it
	// knows no durable state to reopen that database from.
	single bool
}

// New opens a cluster of cfg.Shards empty shards. With WALDir set,
// per-shard logs are created — or replayed, if the directory already
// holds logs from a previous run, making New double as crash recovery.
func New(cfg Config) (*DB, error) {
	return open(cfg, "")
}

// Single serves one already-opened database as a 1-shard cluster, so a
// single database and a sharded one answer through the same coordinator
// (Search, mutations, status, faults). The cluster adopts db — Close
// closes it — but knows nothing of where it came from: it has no WAL
// directory and no replicas, and Kill and Reopen refuse. Dim, MaxCard and
// Omega are db's; every other Config field is its default.
func Single(db *vsdb.DB) *DB {
	c := &DB{
		cfg:    Config{Shards: 1, Dim: db.Dim(), MaxCard: db.MaxCard(), Omega: db.Omega()},
		shards: make([]shard, 1),
		single: true,
	}
	c.shards[0].db.Store(db)
	return c
}

func open(cfg Config, snapDir string) (*DB, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	c := &DB{cfg: cfg, shards: make([]shard, cfg.Shards), snapDir: snapDir}
	c.partial.Store(cfg.Partial)
	c.followerReads.Store(cfg.FollowerReads)
	// Shards open concurrently — each one is dominated by its own I/O
	// (snapshot open, WAL replay), so cold start is the slowest shard,
	// not the sum.
	dbs := make([]*vsdb.DB, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dbs[i], errs[i] = c.openShard(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Report the first failure in shard order; release whatever
			// the other goroutines managed to open.
			for _, db := range dbs {
				if db != nil {
					db.Close()
				}
			}
			return nil, err
		}
	}
	for i := range c.shards {
		c.shards[i].db.Store(dbs[i])
	}
	if cfg.Replicas > 0 {
		// Followers bootstrap after the primaries: openShard has already
		// recovered each shard's WAL (truncating any torn tail), so the
		// durable state a standby replays is exactly the primary's.
		for i := range c.shards {
			rs, err := c.openFollowers(i, dbs[i])
			if err != nil {
				c.Close()
				return nil, err
			}
			c.shards[i].rs = rs
		}
	}
	return c, nil
}

// walPath returns shard i's log path ("" when the cluster runs without
// a WAL directory).
func (c *DB) walPath(i int) string {
	if c.cfg.WALDir == "" {
		return ""
	}
	return filepath.Join(c.cfg.WALDir, wal.ShardLogName(i))
}

// openShard builds shard i's database from its durable state: the
// sharded snapshot (when a snapshot directory is known and holds the
// shard's file) plus the WAL suffix, or the WAL alone, or empty.
// Must be called with c.mu held or before the cluster is shared.
func (c *DB) openShard(i int) (*vsdb.DB, error) {
	return c.openShardAs(i, c.walPath(i))
}

// openStandby builds a follower's standby for shard i: the same durable
// state openShard recovers, but with no WAL of its own — the snapshot is
// loaded, then the log's suffix is replayed without attaching it
// (DESIGN.md §13: the primary's WAL stays the single durable copy).
func (c *DB) openStandby(i int) (*vsdb.DB, error) {
	db, err := c.openShardAs(i, "")
	if err != nil {
		return nil, err
	}
	if err := db.ReplayWALFile(c.walPath(i)); err != nil {
		db.Close()
		return nil, fmt.Errorf("cluster: shard %d standby: %w", i, err)
	}
	return db, nil
}

func (c *DB) openShardAs(i int, walPath string) (*vsdb.DB, error) {
	if c.snapDir != "" {
		snapPath := filepath.Join(c.snapDir, snapshotShardFile(i))
		if _, err := os.Stat(snapPath); err == nil {
			// The shard's paged snapshot is memory-mapped and served in
			// place (a legacy version-1 file is upgraded first).
			db, err := vsdb.OpenFile(snapPath, vsdb.LoadOptions{
				Tracker:      c.cfg.Tracker,
				WALPath:      walPath,
				WALNoSync:    c.cfg.WALNoSync,
				MaxDelta:     c.cfg.MaxDelta,
				CompactRatio: c.cfg.CompactRatio,
			})
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
			}
			return db, nil
		}
	}
	db, err := vsdb.Open(vsdb.Config{
		Dim:          c.cfg.Dim,
		MaxCard:      c.cfg.MaxCard,
		Omega:        c.cfg.Omega,
		Tracker:      c.cfg.Tracker,
		WALPath:      walPath,
		WALNoSync:    c.cfg.WALNoSync,
		MaxDelta:     c.cfg.MaxDelta,
		CompactRatio: c.cfg.CompactRatio,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
	}
	return db, nil
}

// N returns the shard count.
func (c *DB) N() int { return len(c.shards) }

// ShardOf returns the shard owning id: fnv64a(id) mod N.
func (c *DB) ShardOf(id uint64) int { return shardOf(id, len(c.shards)) }

// Route is the routing function as a pure package-level function, for
// out-of-process builders (voxgen -stream) that must place objects in
// the shard files where a serving cluster will look for them.
func Route(id uint64, shards int) int { return shardOf(id, shards) }

func shardOf(id uint64, n int) int {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], id)
	h.Write(b[:])
	return int(h.Sum64() % uint64(n))
}

// Shard returns shard i's database for introspection and tests (nil
// while the shard is down). Mutating it directly bypasses routing
// checks and serving statistics.
func (c *DB) Shard(i int) *vsdb.DB { return c.shards[i].db.Load() }

// Dim returns the configured vector dimensionality.
func (c *DB) Dim() int { return c.cfg.Dim }

// MaxCard returns the configured maximum set cardinality.
func (c *DB) MaxCard() int { return c.cfg.MaxCard }

// Partial reports the current degraded-query mode.
func (c *DB) Partial() bool { return c.partial.Load() }

// SetPartial switches between strict (false) and partial (true)
// degraded-query modes at runtime.
func (c *DB) SetPartial(p bool) { c.partial.Store(p) }

// Len returns the number of live objects across all up shards.
func (c *DB) Len() int {
	n := 0
	for i := range c.shards {
		if db := c.shards[i].db.Load(); db != nil {
			n += db.Len()
		}
	}
	return n
}

// Epoch returns the sum of the shard epochs — the cluster's mutation
// clock. Every mutation advances exactly one shard's epoch, so the sum
// is monotone and serving layers can key query caches on it, exactly as
// they would on a single database's epoch. A killed shard contributes
// its epoch at kill time.
func (c *DB) Epoch() uint64 {
	var sum uint64
	for i := range c.shards {
		if db := c.shards[i].db.Load(); db != nil {
			sum += db.Epoch()
		} else {
			sum += c.shards[i].downEpoch.Load()
		}
	}
	return sum
}

// Stats sums the shards' serving gauges (vsdb.Stats semantics): the
// counters add up, and TombstoneRatio is recomputed from the summed tombstone count — the
// cluster-wide fraction of base-resident objects deleted but not yet
// compacted away. Down shards contribute nothing.
func (c *DB) Stats() vsdb.Stats {
	var st vsdb.Stats
	for i := range c.shards {
		db := c.shards[i].db.Load()
		if db == nil {
			continue
		}
		s := db.Stats()
		st.Refinements += s.Refinements
		st.SignaturePruned += s.SignaturePruned
		st.Matchings += s.Matchings
		st.WALRecords += s.WALRecords
		st.DeltaLen += s.DeltaLen
		st.Tombstones += s.Tombstones
		st.Compactions += s.Compactions
	}
	if st.Tombstones > 0 {
		st.TombstoneRatio = float64(st.Tombstones) / float64(c.Len()+st.Tombstones)
	}
	return st
}

// Get returns the stored vector set of a live id (nil if absent or its
// shard is down).
func (c *DB) Get(id uint64) [][]float64 {
	db := c.shards[c.ShardOf(id)].db.Load()
	if db == nil {
		return nil
	}
	return db.Get(id)
}

// IDs returns the live ids of every up shard, grouped by shard, each
// shard's in its storage order (vsdb.DB.IDs).
func (c *DB) IDs() []uint64 {
	var out []uint64
	for i := range c.shards {
		if db := c.shards[i].db.Load(); db != nil {
			out = append(out, db.IDs()...)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Mutations: route to the owning shard; durable-before-visible is the
// shard's own WAL discipline.

// Insert stores the vector set under id on its owning shard. A malformed
// set fails before any shard is touched, as in BulkInsert.
func (c *DB) Insert(id uint64, set [][]float64) error {
	if err := vsdb.CheckSet(set, c.cfg.Dim, c.cfg.MaxCard, false); err != nil {
		return fmt.Errorf("cluster: id %d: %w", id, err)
	}
	i := c.ShardOf(id)
	return c.callMut(i, OpInsert, func(db *vsdb.DB) error {
		return c.replMutate(i, db, func() error {
			return db.Insert(id, set)
		}, func(firstSeq uint64) []wal.Record {
			return []wal.Record{{Seq: firstSeq, Op: wal.OpInsert, ID: id, Set: set}}
		})
	})
}

// Delete removes a live id from its owning shard.
func (c *DB) Delete(id uint64) error {
	i := c.ShardOf(id)
	return c.callMut(i, OpDelete, func(db *vsdb.DB) error {
		return c.replMutate(i, db, func() error {
			return db.Delete(id)
		}, func(firstSeq uint64) []wal.Record {
			return []wal.Record{{Seq: firstSeq, Op: wal.OpDelete, ID: id}}
		})
	})
}

// BulkInsert partitions the batch by owning shard and bulk-inserts each
// partition. The whole batch is validated first — length mismatch,
// duplicates within the batch, ids already live, cardinality and
// dimension violations all fail before any shard is touched — so on the
// validation path the call is all-or-nothing like vsdb's. A shard-level
// failure mid-apply (a WAL I/O error or an injected fault that outlives
// its retries) can leave earlier shards applied; the error says which
// shard failed.
func (c *DB) BulkInsert(ids []uint64, sets [][][]float64) error {
	if len(ids) != len(sets) {
		return fmt.Errorf("cluster: BulkInsert got %d ids for %d sets", len(ids), len(sets))
	}
	seen := make(map[uint64]int, len(ids))
	for i, id := range ids {
		if j, dup := seen[id]; dup {
			return fmt.Errorf("cluster: id %d duplicated within batch (indexes %d and %d)", id, j, i)
		}
		seen[id] = i
		if c.Get(id) != nil {
			return fmt.Errorf("cluster: id %d %w", id, vsdb.ErrExists)
		}
		if err := vsdb.CheckSet(sets[i], c.cfg.Dim, c.cfg.MaxCard, false); err != nil {
			return fmt.Errorf("cluster: id %d: %w", id, err)
		}
	}
	partIDs := make([][]uint64, len(c.shards))
	partSets := make([][][][]float64, len(c.shards))
	for i, id := range ids {
		s := c.ShardOf(id)
		partIDs[s] = append(partIDs[s], id)
		partSets[s] = append(partSets[s], sets[i])
	}
	for s := range c.shards {
		if len(partIDs[s]) == 0 {
			continue
		}
		ids, sets := partIDs[s], partSets[s]
		if err := c.callMut(s, OpBulkInsert, func(db *vsdb.DB) error {
			return c.replMutate(s, db, func() error {
				return db.BulkInsert(ids, sets)
			}, func(firstSeq uint64) []wal.Record {
				// vsdb logs a bulk insert as one OpInsert per object, in
				// input order; the shipped stream mirrors that exactly.
				recs := make([]wal.Record, len(ids))
				for j := range ids {
					recs[j] = wal.Record{Seq: firstSeq + uint64(j), Op: wal.OpInsert, ID: ids[j], Set: sets[j]}
				}
				return recs
			})
		}); err != nil {
			return err
		}
	}
	return nil
}

// Compact folds every shard's delta memtable and tombstones, in
// parallel. All shards are attempted; the first failure (by shard
// order) is returned. Compaction changes representation, never logical
// state — nothing is logged or shipped — so with replication the
// followers' standbys are compacted directly alongside their primaries.
func (c *DB) Compact() error {
	errs := make([]error, len(c.shards))
	parallel.Run(len(c.shards), func(i int) {
		errs[i] = c.callMut(i, OpCompact, func(db *vsdb.DB) error {
			db.Compact()
			return nil
		})
		if rs := c.shards[i].rs; rs != nil {
			p := int(rs.primary.Load())
			for r, m := range rs.members {
				if r == p {
					continue
				}
				if db := m.db.Load(); db != nil {
					db.Compact()
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Topology: crash and recovery.

// Kill simulates the crash of shard i's serving database. Without
// replication that is the whole shard: the in-memory database is
// dropped and its WAL handle closed, every durable mutation survives on
// disk, and until Reopen operations against the shard fail with
// ErrShardDown. With replication, Kill kills the shard's *current
// primary* — whichever member holds that role now, not necessarily
// member 0 — and the shard fails over: the most-caught-up live follower
// is promoted (replaying any WAL delta shipping had not delivered, so
// no acknowledged write is lost) and the shard stays up; only when no
// follower can take over does the shard go down. Use KillReplica to
// address one member — a specific follower, or the primary — by index.
func (c *DB) Kill(i int) error {
	if c.single {
		return errSingle
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.shards[i]
	if s.rs != nil {
		s.rs.mu.Lock()
		defer s.rs.mu.Unlock()
		return c.killReplicaLocked(i, int(s.rs.primary.Load()))
	}
	return c.killShardLocked(i)
}

// killShardLocked is the replicaless kill: drop the database, close the
// WAL handle. c.mu is held.
func (c *DB) killShardLocked(i int) error {
	s := &c.shards[i]
	db := s.db.Swap(nil)
	if db == nil {
		return fmt.Errorf("cluster: shard %d already down", i)
	}
	s.downEpoch.Store(db.Epoch())
	return db.Close()
}

// Reopen recovers shard i's killed members from durable state: the
// sharded snapshot directory (if one is known and holds the shard's
// file) plus the WAL suffix beyond it, or the full WAL alone. With
// replication every down member restarts — a down shard recovers a new
// primary first, and the rest rejoin as followers of the live primary
// (ReopenReplica restarts a single member instead).
func (c *DB) Reopen(i int) error {
	if c.single {
		return errSingle
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.shards[i]
	if s.rs != nil {
		s.rs.mu.Lock()
		defer s.rs.mu.Unlock()
		return c.reopenMembersLocked(i)
	}
	return c.reopenShardLocked(i)
}

var errSingle = errors.New("cluster: the shard of a Single cluster is the caller's database; it cannot be killed or reopened")

// reopenShardLocked is the replicaless reopen. c.mu is held.
func (c *DB) reopenShardLocked(i int) error {
	s := &c.shards[i]
	if s.db.Load() != nil {
		return fmt.Errorf("cluster: shard %d is up", i)
	}
	db, err := c.openShard(i)
	if err != nil {
		return err
	}
	s.db.Store(db)
	return nil
}

// Close detaches and closes every shard's WAL and stops every
// follower's apply loop. The cluster remains queryable; further
// mutations are not logged or shipped.
func (c *DB) Close() error {
	var first error
	for i := range c.shards {
		s := &c.shards[i]
		if db := s.db.Load(); db != nil {
			if err := db.Close(); err != nil && first == nil {
				first = err
			}
		}
		rs := s.rs
		if rs == nil {
			continue
		}
		primary := s.db.Load()
		for _, m := range rs.members {
			if fol := m.fol.Load(); fol != nil {
				fol.Stop()
			}
			if db := m.db.Load(); db != nil && db != primary {
				if err := db.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	return first
}

// ---------------------------------------------------------------------------
// Status

// ShardStatus is one shard's serving state, surfaced through the
// coordinator's /cluster endpoint and /metrics gauges.
type ShardStatus struct {
	Shard          int     `json:"shard"`
	Up             bool    `json:"up"`
	Objects        int     `json:"objects"`
	Epoch          uint64  `json:"epoch"`
	WALRecords     int64   `json:"wal_records"`
	DeltaObjects   int     `json:"delta_objects"`
	TombstoneRatio float64 `json:"tombstone_ratio"`
	Queries        int64   `json:"queries"`
	Errors         int64   `json:"errors"`
	Timeouts       int64   `json:"timeouts"`
	Retries        int64   `json:"retries"`
	MeanLatencyMS  float64 `json:"mean_latency_ms"`
	// Term and Replicas describe the shard's replica set (absent when
	// replication is disabled): the fencing term, bumped per failover,
	// and every member's role, epoch, lag and serving counters.
	Term     uint64          `json:"term,omitempty"`
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
}

// Status reports every shard's serving state.
func (c *DB) Status() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		st := ShardStatus{
			Shard:    i,
			Queries:  s.queries.Load(),
			Errors:   s.errors.Load(),
			Timeouts: s.timeouts.Load(),
			Retries:  s.retries.Load(),
		}
		if n := s.latN.Load(); n > 0 {
			st.MeanLatencyMS = float64(s.latNS.Load()) / float64(n) / float64(time.Millisecond)
		}
		if db := s.db.Load(); db != nil {
			gauges := db.Stats()
			st.Up = true
			st.Objects = db.Len()
			st.Epoch = db.Epoch()
			st.WALRecords = gauges.WALRecords
			st.DeltaObjects = gauges.DeltaLen
			st.TombstoneRatio = gauges.TombstoneRatio
		} else {
			st.Epoch = s.downEpoch.Load()
		}
		if s.rs != nil {
			st.Term = s.rs.term.Load()
			st.Replicas = c.replicaStatus(i)
		}
		out[i] = st
	}
	return out
}
