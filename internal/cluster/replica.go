package cluster

// Per-shard replication (DESIGN.md §13). With Config.Replicas = R > 0
// every shard becomes a replica set of R+1 members: member 0 opens as
// the primary — it owns the shard WAL exactly as before — and the others
// open as followers: standby databases bootstrapped from the shard's
// durable state (snapshot + WAL replay, without attaching the log) that
// then tail the primary's mutations as shipped replica frames.
//
// The invariants that make replication exact:
//
//   - The WAL is the one durable copy. Shipping only keeps followers
//     warm; an acknowledged write is safe because it is in the primary's
//     log, and promotion finishes with AttachWAL, which replays whatever
//     delta the promoted follower had not yet applied.
//   - Shipping is ordered. The per-shard replication mutex serializes
//     mutate+ship, so followers receive records in sequence order; a
//     follower that observes a gap (a dropped frame) marks itself failed
//     instead of diverging.
//   - Promotion is deterministic: the most-caught-up live follower wins,
//     ties broken by the lowest replica index. The replica-set term
//     increments and every survivor fences on it, so frames from a
//     deposed primary are dropped.
//   - A caught-up follower's state is byte-identical to the primary's:
//     both applied the same records in the same order, and compaction
//     changes representation, never results. Follower reads are
//     therefore exact; with MaxLag 0 only fully caught-up followers are
//     eligible at all.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/voxset/voxset/internal/replica"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/wal"
)

// ErrPrimaryMoved reports a mutation that raced a promotion: it loaded
// the deposed primary and did not run. Retrying against the reloaded
// shard is always safe.
var ErrPrimaryMoved = errors.New("shard primary changed")

// replMember is one member of a shard's replica set: its database (nil
// while down), its follower machinery (nil while it is the primary or
// down), and its serving counters.
type replMember struct {
	db    atomic.Pointer[vsdb.DB]
	fol   atomic.Pointer[replica.Follower]
	reads atomic.Int64

	// tr is the ship transport feeding fol (possibly wrapped by
	// Config.ReplicaTransport); guarded by the owning set's mu.
	tr replica.Transport
}

// replicaSet is a shard's replication state. mu serializes mutations
// (mutate + ship), promotion and rejoin — the orderings replication
// correctness rests on; reads never take it.
type replicaSet struct {
	mu      sync.Mutex
	term    atomic.Uint64 // fencing term, bumped by every promotion
	primary atomic.Int32  // index of the member currently primary
	members []*replMember
	rr      atomic.Uint64 // round-robin cursor for follower reads
}

// liveFollower returns member r's follower if it is up and healthy.
func (rs *replicaSet) liveFollower(r int) *replica.Follower {
	m := rs.members[r]
	if m.db.Load() == nil {
		return nil
	}
	fol := m.fol.Load()
	if fol == nil || fol.Err() != nil {
		return nil
	}
	return fol
}

// openFollowers builds shard i's replica set around an already-open
// primary: each follower bootstraps a standby from the shard's durable
// state and starts tailing.
func (c *DB) openFollowers(i int, primary *vsdb.DB) (*replicaSet, error) {
	rs := &replicaSet{members: make([]*replMember, c.cfg.Replicas+1)}
	rs.members[0] = &replMember{}
	rs.members[0].db.Store(primary)
	for r := 1; r <= c.cfg.Replicas; r++ {
		m := &replMember{}
		if err := c.startFollower(i, r, rs, m, primary.Epoch()); err != nil {
			for _, pm := range rs.members {
				if pm == nil {
					continue
				}
				if fol := pm.fol.Load(); fol != nil {
					fol.Stop()
				}
				if db := pm.db.Load(); db != nil && db != primary {
					db.Close()
				}
			}
			return nil, err
		}
		rs.members[r] = m
	}
	return rs, nil
}

// startFollower opens member r's standby from the shard's durable state
// and wires its follower + transport. wantEpoch is the primary's epoch
// at a quiescent moment (bootstrap or rejoin under rs.mu): the standby
// must reach exactly it, or the durable state and the primary disagree.
func (c *DB) startFollower(i, r int, rs *replicaSet, m *replMember, wantEpoch uint64) error {
	standby, err := c.openStandby(i)
	if err != nil {
		return fmt.Errorf("cluster: shard %d replica %d: %w", i, r, err)
	}
	if got := standby.Epoch(); got != wantEpoch {
		standby.Close()
		return fmt.Errorf("cluster: shard %d replica %d bootstrapped to epoch %d, primary is at %d", i, r, got, wantEpoch)
	}
	fol := replica.NewFollower(wantEpoch, func(rec wal.Record) error {
		return standby.ApplyRecord(rec)
	})
	fol.SetFence(rs.term.Load())
	m.tr = c.wrapTransport(i, r, fol)
	m.fol.Store(fol)
	m.db.Store(standby)
	return nil
}

func (c *DB) wrapTransport(i, r int, fol *replica.Follower) replica.Transport {
	if c.cfg.ReplicaTransport != nil {
		return c.cfg.ReplicaTransport(i, r, fol)
	}
	return fol
}

// replMutate wraps one primary mutation with record shipping. Under the
// replica set's lock it runs mut, derives the records the primary just
// appended (firstSeq is the sequence of the first one), encodes them
// once under the current term, and ships them to every live follower —
// so followers observe the exact per-shard mutation order.
func (c *DB) replMutate(i int, db *vsdb.DB, mut func() error, recs func(firstSeq uint64) []wal.Record) error {
	rs := c.shards[i].rs
	if rs == nil {
		return mut()
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if c.shards[i].db.Load() != db {
		// A promotion deposed the primary this attempt loaded; nothing
		// ran, so the coordinator retries against the new one.
		return fmt.Errorf("shard %d: %w", i, ErrPrimaryMoved)
	}
	before := db.Epoch()
	if err := mut(); err != nil {
		return err
	}
	after := db.Epoch()
	if after == before {
		return nil
	}
	term := rs.term.Load()
	frames := make([][]byte, 0, after-before)
	for _, rec := range recs(before + 1) {
		frame, err := replica.EncodeFrame(replica.Ship{Term: term, Rec: rec})
		if err != nil {
			// The mutation was validated by vsdb; an unencodable record
			// is a programming error, surfaced rather than half-shipped.
			return fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		frames = append(frames, frame)
	}
	p := int(rs.primary.Load())
	for r, m := range rs.members {
		if r == p || m.db.Load() == nil {
			continue
		}
		for _, frame := range frames {
			if err := m.tr.Ship(frame); err != nil {
				// A failed transport strands this follower (its next
				// in-order frame never arrives, so it gap-faults); the
				// acknowledged write is safe in the WAL regardless.
				break
			}
		}
	}
	return nil
}

// readTarget picks the database to serve a read-only attempt against
// shard i: the primary, or — with follower reads enabled — a round-robin
// choice among the primary and every caught-up follower (lag at most
// MaxLag behind the primary's epoch). Any eligible target returns
// byte-identical results, so routing never changes answers, only load.
func (c *DB) readTarget(i int, primary *vsdb.DB) *vsdb.DB {
	rs := c.shards[i].rs
	if rs == nil || !c.followerReads.Load() {
		return primary
	}
	n := len(rs.members)
	p := int(rs.primary.Load())
	pe := primary.Epoch()
	start := int(rs.rr.Add(1) % uint64(n))
	for k := 0; k < n; k++ {
		r := (start + k) % n
		if r == p {
			return primary // the primary's turn in the rotation
		}
		fol := rs.liveFollower(r)
		if fol == nil {
			continue
		}
		if pe-fol.Applied() > c.cfg.MaxLag {
			continue // staleness bound: too far behind
		}
		m := rs.members[r]
		if db := m.db.Load(); db != nil {
			m.reads.Add(1)
			return db
		}
	}
	return primary
}

// promoteLocked fails the shard over after its primary died at
// downEpoch: the most-caught-up live follower (ties to the lowest
// replica index) is drained, detached from the ship stream, and attached
// to the shard WAL — replaying any delta it had not applied — under a
// bumped term every survivor fences on. Both c.mu and rs.mu are held.
func (c *DB) promoteLocked(i int, downEpoch uint64) error {
	s := &c.shards[i]
	rs := s.rs
	term := rs.term.Add(1)
	for {
		best := -1
		var bestApplied uint64
		for r := range rs.members {
			if r == int(rs.primary.Load()) {
				continue
			}
			fol := rs.liveFollower(r)
			if fol == nil {
				continue
			}
			if applied := fol.Applied(); best == -1 || applied > bestApplied {
				best, bestApplied = r, applied
			}
		}
		if best == -1 {
			// No member can take over: the shard is down. Any remaining
			// zombies (followers with sticky replication errors — stale,
			// unpromotable) are closed too, so shard-down is a clean
			// all-members-down state Reopen recovers from.
			for _, m := range rs.members {
				if fol := m.fol.Swap(nil); fol != nil {
					fol.Stop()
				}
				if db := m.db.Swap(nil); db != nil {
					db.Close()
				}
			}
			s.db.Store(nil)
			s.downEpoch.Store(downEpoch)
			return fmt.Errorf("cluster: shard %d has no live follower to promote", i)
		}
		m := rs.members[best]
		db := m.db.Load()
		// Serve reads from the standby immediately (it may lag for the
		// moment); mutations stay blocked on rs.mu until promotion ends.
		s.db.Store(db)
		fol := m.fol.Load()
		err := fol.Drain(c.cfg.shardTimeout())
		fol.Stop()
		m.fol.Store(nil)
		if err == nil {
			err = db.AttachWAL(c.walPath(i), vsdb.WALOptions{NoSync: c.cfg.WALNoSync})
		}
		if err != nil {
			// This follower cannot take over (drain failure or a WAL it
			// cannot adopt); it is as dead as the primary — drop it and
			// try the next candidate.
			m.db.Store(nil)
			db.Close()
			continue
		}
		rs.primary.Store(int32(best))
		// Re-point the survivors at the new primary: drain what the old
		// one already shipped (legitimate history — the WAL holds it
		// too), raise the fence so anything a deposed primary might
		// still push is dropped, and re-ship the WAL delta the survivor
		// had not yet received under the new term. A survivor that
		// cannot complete the hand-off is left to gap-fault — it turns
		// ineligible rather than wrong.
		for r := range rs.members {
			if r == best {
				continue
			}
			fol := rs.liveFollower(r)
			if fol == nil {
				continue
			}
			if fol.Drain(c.cfg.shardTimeout()) != nil {
				continue
			}
			fol.SetFence(term)
			_ = c.shipWALDelta(i, rs.members[r], fol, term)
		}
		c.promotions.Add(1)
		return nil
	}
}

// shipWALDelta re-ships shard i's WAL records beyond fol's applied
// sequence through the member's transport under term — the post-failover
// catch-up that realigns a survivor with its new primary. Must run with
// rs.mu held (no concurrent mutations) on a drained follower.
func (c *DB) shipWALDelta(i int, m *replMember, fol *replica.Follower, term uint64) error {
	_, recs, err := wal.ReadSuffix(c.walPath(i), fol.Applied())
	if err != nil {
		return err
	}
	for _, rec := range recs {
		frame, err := replica.EncodeFrame(replica.Ship{Term: term, Rec: rec})
		if err != nil {
			return err
		}
		if err := m.tr.Ship(frame); err != nil {
			return err
		}
	}
	return nil
}

// reopenMembersLocked restarts every down member of shard i (the Reopen
// semantics under replication). A down shard recovers its new primary
// first — the lowest down member index, under a fresh term — and the
// remaining down members rejoin as followers. Reopening a shard with
// nothing down is an error, mirroring the replicaless Reopen. Both c.mu
// and rs.mu are held.
func (c *DB) reopenMembersLocked(i int) error {
	s := &c.shards[i]
	rs := s.rs
	reopened := 0
	if s.db.Load() == nil {
		r := -1
		for j, m := range rs.members {
			if m.db.Load() == nil {
				r = j
				break
			}
		}
		if r == -1 {
			return fmt.Errorf("cluster: shard %d is down but every member is up", i)
		}
		db, err := c.openShard(i)
		if err != nil {
			return err
		}
		rs.term.Add(1)
		rs.primary.Store(int32(r))
		rs.members[r].db.Store(db)
		s.db.Store(db)
		reopened++
	}
	primary := s.db.Load()
	for r, m := range rs.members {
		if m.db.Load() != nil {
			continue
		}
		if err := c.rejoinLocked(i, r, primary); err != nil {
			return err
		}
		reopened++
	}
	if reopened == 0 {
		return fmt.Errorf("cluster: shard %d is up", i)
	}
	return nil
}

// rejoinLocked restarts member r of shard i as a follower of the live
// primary. Holding rs.mu quiesces mutations, so the shard WAL holds
// exactly the acknowledged history: the standby bootstraps to the
// primary's epoch and the next shipped record continues the stream.
func (c *DB) rejoinLocked(i, r int, primary *vsdb.DB) error {
	rs := c.shards[i].rs
	return c.startFollower(i, r, rs, rs.members[r], primary.Epoch())
}

// killReplicaLocked takes member r of shard i down. Killing the current
// primary is a failover: the shard promotes a follower (and stays up) or
// goes down when none can take over. Both c.mu and rs.mu are held.
func (c *DB) killReplicaLocked(i, r int) error {
	rs := c.shards[i].rs
	m := rs.members[r]
	db := m.db.Swap(nil)
	if db == nil {
		return fmt.Errorf("cluster: replica %d of shard %d already down", r, i)
	}
	if fol := m.fol.Swap(nil); fol != nil {
		fol.Stop()
	}
	if r != int(rs.primary.Load()) {
		return db.Close()
	}
	downEpoch := db.Epoch()
	cerr := db.Close()
	// Promotion failure is shard-down, not a Kill error: the crash
	// semantics match the replicaless cluster's.
	_ = c.promoteLocked(i, downEpoch)
	return cerr
}

// KillReplica simulates the crash of one member of shard i's replica
// set. Killing a follower narrows the set; killing the current primary
// triggers failover (see Kill). Killing an already-dead replica is an
// error, as is addressing a replica the configuration does not have.
func (c *DB) KillReplica(i, r int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.shards[i]
	if s.rs == nil {
		if r == 0 {
			return c.killShardLocked(i)
		}
		return fmt.Errorf("cluster: shard %d has no replica %d (replication disabled)", i, r)
	}
	if r < 0 || r >= len(s.rs.members) {
		return fmt.Errorf("cluster: shard %d has no replica %d", i, r)
	}
	s.rs.mu.Lock()
	defer s.rs.mu.Unlock()
	return c.killReplicaLocked(i, r)
}

// ReopenReplica restarts a killed member of shard i's replica set. With
// a live primary the member rejoins as a follower, bootstrapping from
// the shard's durable state (the snapshot plus the WAL delta) and then
// tailing shipped records; with the whole shard down the member recovers
// as the new primary. Reopening a replica that is up is an error.
func (c *DB) ReopenReplica(i, r int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.shards[i]
	if s.rs == nil {
		if r == 0 {
			return c.reopenShardLocked(i)
		}
		return fmt.Errorf("cluster: shard %d has no replica %d (replication disabled)", i, r)
	}
	if r < 0 || r >= len(s.rs.members) {
		return fmt.Errorf("cluster: shard %d has no replica %d", i, r)
	}
	rs := s.rs
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.members[r].db.Load() != nil {
		return fmt.Errorf("cluster: replica %d of shard %d is up", r, i)
	}
	if primary := s.db.Load(); primary != nil {
		return c.rejoinLocked(i, r, primary)
	}
	// Whole shard down: this member recovers as the new primary under a
	// fresh term (any frame a deposed primary might still push is stale).
	db, err := c.openShard(i)
	if err != nil {
		return err
	}
	rs.term.Add(1)
	rs.primary.Store(int32(r))
	rs.members[r].db.Store(db)
	s.db.Store(db)
	return nil
}

// ReplicaDB returns member r of shard i's database for tests and
// introspection (nil while down). The primary member's database is the
// same one Shard returns.
func (c *DB) ReplicaDB(i, r int) *vsdb.DB {
	s := &c.shards[i]
	if s.rs == nil {
		if r == 0 {
			return s.db.Load()
		}
		return nil
	}
	return s.rs.members[r].db.Load()
}

// ReplicationEnabled reports whether shards carry replica sets.
func (c *DB) ReplicationEnabled() bool { return c.cfg.Replicas > 0 }

// Replicas returns the configured number of followers per shard.
func (c *DB) Replicas() int { return c.cfg.Replicas }

// Promotions returns the number of failovers performed so far.
func (c *DB) Promotions() int64 { return c.promotions.Load() }

// FollowerReadsEnabled reports whether read-only queries may be served
// by caught-up followers.
func (c *DB) FollowerReadsEnabled() bool { return c.followerReads.Load() }

// SetFollowerReads switches follower read routing at runtime. Routing
// never changes results — only which replica computes them.
func (c *DB) SetFollowerReads(on bool) { c.followerReads.Store(on) }

// FollowerReadCount returns the number of read attempts served by
// followers rather than primaries.
func (c *DB) FollowerReadCount() int64 {
	var sum int64
	c.eachMember(func(_, _ int, m *replMember) { sum += m.reads.Load() })
	return sum
}

// FencedFrames returns the number of shipped frames dropped by follower
// term fences — stale-primary traffic that was recognized and rejected.
func (c *DB) FencedFrames() int64 {
	var sum int64
	c.eachMember(func(_, _ int, m *replMember) {
		if fol := m.fol.Load(); fol != nil {
			sum += fol.Fenced()
		}
	})
	return sum
}

// MaxReplicaLag returns the largest current follower lag in records
// across every shard (0 when replication is off or all caught up).
func (c *DB) MaxReplicaLag() uint64 {
	var max uint64
	for i := range c.shards {
		s := &c.shards[i]
		if s.rs == nil {
			continue
		}
		primary := s.db.Load()
		if primary == nil {
			continue
		}
		pe := primary.Epoch()
		for r := range s.rs.members {
			if fol := s.rs.liveFollower(r); fol != nil {
				if lag := pe - fol.Applied(); lag > max {
					max = lag
				}
			}
		}
	}
	return max
}

func (c *DB) eachMember(fn func(shard, r int, m *replMember)) {
	for i := range c.shards {
		rs := c.shards[i].rs
		if rs == nil {
			continue
		}
		for r, m := range rs.members {
			fn(i, r, m)
		}
	}
}

// WaitReplicaSync blocks until every healthy follower has applied its
// primary's full history (lag 0), or the timeout elapses. Faulted
// followers (Err non-nil) are skipped — they can only recover by
// rejoining. Tests and benchmarks use it to drain shipping before
// asserting parity.
func (c *DB) WaitReplicaSync(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lagging := ""
		for i := range c.shards {
			s := &c.shards[i]
			if s.rs == nil {
				continue
			}
			primary := s.db.Load()
			if primary == nil {
				continue
			}
			pe := primary.Epoch()
			for r := range s.rs.members {
				if fol := s.rs.liveFollower(r); fol != nil && fol.Applied() < pe {
					lagging = fmt.Sprintf("shard %d replica %d at %d of %d", i, r, fol.Applied(), pe)
				}
			}
		}
		if lagging == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: replica sync timed out: %s", lagging)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ReplicaStatus is one replica-set member's serving state, nested in
// ShardStatus and surfaced through /cluster and /metrics.
type ReplicaStatus struct {
	Replica int `json:"replica"`
	// Role is "primary", "follower", or "down".
	Role   string `json:"role"`
	Epoch  uint64 `json:"epoch"`
	Lag    uint64 `json:"lag"`
	Reads  int64  `json:"reads"`
	Fenced int64  `json:"fenced"`
	// Err carries a follower's sticky replication failure (a gap, a
	// corrupt frame, an apply error); empty while healthy.
	Err string `json:"err,omitempty"`
}

// replicaStatusLocked reports shard i's replica topology (nil when
// replication is off).
func (c *DB) replicaStatus(i int) []ReplicaStatus {
	rs := c.shards[i].rs
	if rs == nil {
		return nil
	}
	p := int(rs.primary.Load())
	var pe uint64
	if primary := c.shards[i].db.Load(); primary != nil {
		pe = primary.Epoch()
	}
	out := make([]ReplicaStatus, len(rs.members))
	for r, m := range rs.members {
		st := ReplicaStatus{Replica: r, Role: "down", Reads: m.reads.Load()}
		db := m.db.Load()
		switch {
		case db == nil:
		case r == p:
			st.Role = "primary"
			st.Epoch = db.Epoch()
		default:
			st.Role = "follower"
			st.Epoch = db.Epoch()
			if pe > st.Epoch {
				st.Lag = pe - st.Epoch
			}
			if fol := m.fol.Load(); fol != nil {
				st.Fenced = fol.Fenced()
				if err := fol.Err(); err != nil {
					st.Err = err.Error()
				}
			}
		}
		out[r] = st
	}
	return out
}
