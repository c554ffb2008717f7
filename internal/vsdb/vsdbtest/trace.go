// Package vsdbtest holds the randomized-oracle machinery shared by the
// vsdb live-update tests and the cluster cross-shard parity tests: a
// seeded trace generator producing valid interleavings of mutations and
// queries, a brute-force reference model queried by exhaustive exact
// scan, a bit-exact result differ, a bounded ddmin-style trace
// shrinker, and a byte fingerprint of a database's durable state.
// Keeping it in a separate package lets internal/cluster demand the same
// "bit-identical to the model at every step" contract the unsharded
// engine is held to, with the same readable counterexamples on failure.
package vsdbtest

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/vsdb"
)

// OpKind enumerates the operations a trace can contain.
type OpKind int

const (
	OpInsert OpKind = iota
	OpBulk
	OpDelete
	OpKNN
	OpRange
	OpCompact
	OpCheckpoint
	OpReopen
)

func (k OpKind) String() string {
	return [...]string{"insert", "bulk", "delete", "knn", "range", "compact", "checkpoint", "reopen"}[k]
}

// Op is one concrete trace operation. Which fields are meaningful
// depends on Kind (ID+Set for insert, IDs+Sets for bulk, and so on).
type Op struct {
	Kind OpKind
	ID   uint64
	Set  [][]float64
	IDs  []uint64      // bulk
	Sets [][][]float64 // bulk
	K    int
	Eps  float64
}

func (o Op) String() string {
	switch o.Kind {
	case OpInsert:
		return fmt.Sprintf("insert(%d, %v)", o.ID, o.Set)
	case OpBulk:
		return fmt.Sprintf("bulk(%v, %v)", o.IDs, o.Sets)
	case OpDelete:
		return fmt.Sprintf("delete(%d)", o.ID)
	case OpKNN:
		return fmt.Sprintf("knn(%v, k=%d)", o.Set, o.K)
	case OpRange:
		return fmt.Sprintf("range(%v, eps=%g)", o.Set, o.Eps)
	}
	return o.Kind.String() + "()"
}

// TraceOptions parameterizes GenTrace.
type TraceOptions struct {
	// NOps is the trace length.
	NOps int
	// Dim and MaxCard bound the generated vector sets.
	Dim, MaxCard int
	// Persist mixes checkpoint and reopen (crash-shaped restart) ops
	// into the trace. Engines without a persistence hook leave it false.
	Persist bool
}

// GenTrace materializes opt.NOps concrete operations from the seed,
// simulating liveness so every op is valid in context (deletes target
// live ids; some inserts reuse previously deleted ids to exercise
// delete+reinsert through WAL replay and compaction).
func GenTrace(seed int64, opt TraceOptions) []Op {
	rng := rand.New(rand.NewSource(seed))
	live := []uint64{}
	dead := []uint64{}
	next := uint64(0)
	randSet := func() [][]float64 {
		set := make([][]float64, 1+rng.Intn(opt.MaxCard))
		for i := range set {
			set[i] = make([]float64, opt.Dim)
			for j := range set[i] {
				set[i][j] = rng.NormFloat64()
			}
		}
		return set
	}
	newID := func() uint64 {
		// Reinsertion of a dead id exercises the delete+reinsert paths.
		if len(dead) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(dead))
			id := dead[i]
			dead = append(dead[:i], dead[i+1:]...)
			return id
		}
		next++
		return next
	}
	ops := make([]Op, 0, opt.NOps)
	for len(ops) < opt.NOps {
		switch p := rng.Intn(100); {
		case p < 30: // insert
			id := newID()
			live = append(live, id)
			ops = append(ops, Op{Kind: OpInsert, ID: id, Set: randSet()})
		case p < 37: // bulk insert of 1..6
			n := 1 + rng.Intn(6)
			ids := make([]uint64, n)
			sets := make([][][]float64, n)
			for i := range ids {
				ids[i] = newID()
				sets[i] = randSet()
				live = append(live, ids[i])
			}
			ops = append(ops, Op{Kind: OpBulk, IDs: ids, Sets: sets})
		case p < 59: // delete
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			dead = append(dead, id)
			ops = append(ops, Op{Kind: OpDelete, ID: id})
		case p < 79: // knn
			ops = append(ops, Op{Kind: OpKNN, Set: randSet(), K: 1 + rng.Intn(8)})
		case p < 89: // range
			ops = append(ops, Op{Kind: OpRange, Set: randSet(), Eps: rng.Float64() * 3})
		case p < 94:
			ops = append(ops, Op{Kind: OpCompact})
		case p < 97:
			if !opt.Persist {
				continue
			}
			ops = append(ops, Op{Kind: OpCheckpoint})
		default:
			if !opt.Persist {
				continue
			}
			ops = append(ops, Op{Kind: OpReopen})
		}
	}
	return ops
}

// Model is the brute-force reference: live sets plus insertion order,
// queried by exhaustive exact scan under the same ground distance and
// weight function as the engine under test.
type Model struct {
	sets  map[uint64][][]float64
	order []uint64
	wfn   dist.WeightFunc
}

// NewModel returns an empty model with the weight function w_ω induced
// by omega (the vsdb default).
func NewModel(omega []float64) *Model {
	return &Model{sets: map[uint64][][]float64{}, wfn: dist.WeightNormTo(omega)}
}

// Insert records id → set as live.
func (m *Model) Insert(id uint64, set [][]float64) {
	m.sets[id] = set
	m.order = append(m.order, id)
}

// Delete removes a live id.
func (m *Model) Delete(id uint64) {
	delete(m.sets, id)
	for i, x := range m.order {
		if x == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// Len returns the number of live objects.
func (m *Model) Len() int { return len(m.order) }

// Order returns the live ids in insertion order (shared slice; do not
// mutate).
func (m *Model) Order() []uint64 { return m.order }

// Has reports whether id is live.
func (m *Model) Has(id uint64) bool {
	_, ok := m.sets[id]
	return ok
}

func (m *Model) scan(q [][]float64) []vsdb.Neighbor {
	out := make([]vsdb.Neighbor, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, vsdb.Neighbor{ID: id, Dist: dist.MatchingDistance(q, m.sets[id], dist.L2, m.wfn)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// KNN returns the k nearest model objects under the (dist, id) contract.
func (m *Model) KNN(q [][]float64, k int) []vsdb.Neighbor {
	all := m.scan(q)
	if k > len(all) {
		k = len(all)
	}
	if k <= 0 {
		return nil
	}
	return all[:k]
}

// Range returns all model objects within eps of q.
func (m *Model) Range(q [][]float64, eps float64) []vsdb.Neighbor {
	all := m.scan(q)
	out := all[:0:0]
	for _, nb := range all {
		if nb.Dist <= eps {
			out = append(out, nb)
		}
	}
	return out
}

// Diff compares two result lists for bit-identity and returns a
// description of the first divergence ("" when equal).
func Diff(got, want []vsdb.Neighbor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("result %d = %+v, want %+v (not bit-identical)", i, got[i], want[i])
		}
	}
	return ""
}

// Shrink reduces a failing trace with bounded ddmin-style chunk removal:
// drop chunks of shrinking size as long as fails still reports the trace
// failing, re-executing at most budget times. Removed mutation ops can
// invalidate later ops; runners that treat op errors as failures keep
// only removals preserving a real mismatch, which is what we want to
// read.
func Shrink(ops []Op, fails func([]Op) bool, budget int) []Op {
	cur := ops
	for chunk := len(cur) / 2; chunk >= 1 && budget > 0; chunk /= 2 {
		for start := 0; start+chunk <= len(cur) && budget > 0; {
			cand := append(append([]Op{}, cur[:start]...), cur[start+chunk:]...)
			budget--
			if fails(cand) {
				cur = cand // removal kept the failure; retry same offset
			} else {
				start += chunk
			}
		}
	}
	return cur
}
