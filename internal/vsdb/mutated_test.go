package vsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/vectorset"
)

// A mutated view (base + tombstones + delta memtable) must answer every
// exact query byte for byte like a brute-force scan of the live set — its
// k-nn stream merged with another database's like the scan of their union —
// and
// must run about the exact evaluations its compacted form runs: the
// tombstone-aware ranking and the centroid-bounded delta (DESIGN.md §8)
// prune work, never answers.

// No automatic compaction: the tests place delta entries and tombstones
// deliberately, beyond both thresholds.
const noAutoCompact = -1

// mutDim/mutCard: a power-of-two MaxCard and the small integer
// coordinates of latticeSet keep centroids, bounds and distances exact
// in floating point, so equal sets tie exactly and a card-1 set's
// centroid bound equals its distance to a card-1 query bit for bit.
// Under mutOddCard the centroid divides by 7 and that bound can land an
// ulp above the distance: ties at the k-th place and at ε then hold only
// because every bound comparison goes through vectorset.BoundExceeds.
const mutDim, mutCard, mutOddCard = 3, 4, 7

func latticeSet(rng *rand.Rand, card int) [][]float64 {
	s := make([][]float64, card)
	for i := range s {
		s[i] = make([]float64, mutDim)
		for j := range s[i] {
			s[i][j] = float64(rng.Intn(7) - 3)
		}
	}
	return s
}

// bruteModel is the reference: the live sets by id, scanned exhaustively
// with the generic matching distance.
type bruteModel map[uint64][][]float64

func (m bruteModel) scan(q [][]float64) []Neighbor {
	out := make([]Neighbor, 0, len(m))
	for id, set := range m {
		out = append(out, Neighbor{ID: id, Dist: dist.MatchingDistance(q, set, dist.L2, dist.WeightNorm)})
	}
	sortNeighbors(out)
	return out
}

// checkAgainstBrute compares k-nn at k ∈ {1, 10, 50, live+3} and range
// queries — at ε equal to the 1st, 10th and last brute distance, so the
// boundary always carries an exact tie — with the model.
func checkAgainstBrute(t *testing.T, db *DB, m bruteModel, q [][]float64, ctx string) {
	t.Helper()
	all := m.scan(q)
	for _, k := range []int{1, 10, 50, len(m) + 3} {
		want := all[:min(k, len(all))]
		got := one(db, Query{Set: q, Kind: KNN, K: k})
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("%s: knn k=%d on an empty live set = %v", ctx, k, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: knn k=%d\n got %v\nwant %v", ctx, k, got, want)
		}
	}
	for _, at := range []int{0, 9, len(all) - 1} {
		if at < 0 || at >= len(all) {
			continue
		}
		eps := all[at].Dist
		n := sort.Search(len(all), func(i int) bool { return all[i].Dist > eps })
		got := one(db, Query{Set: q, Kind: Range, Eps: eps})
		if !reflect.DeepEqual(got, all[:n]) {
			t.Fatalf("%s: range eps=%v\n got %v\nwant %v", ctx, eps, got, all[:n])
		}
	}
}

// checkStreamsAgainstBrute compares the merged funnel with the model: one
// Open on db and one on other (a second database, its ids disjoint from
// db's, its sets from the same pool so that equal distances at the k-th
// place fall in both), walked by one MultiStep at k ∈ {1, 10, live+3},
// must answer the brute top k of their union. A Range entry opened in the
// same batch answers as Search does.
func checkStreamsAgainstBrute(t *testing.T, db, other *DB, m, om bruteModel, q [][]float64, ctx string) {
	t.Helper()
	union := bruteModel{}
	for _, mm := range []bruteModel{m, om} {
		for id, set := range mm {
			union[id] = set
		}
	}
	all := union.scan(q)
	rangeQ := Query{Set: q, Kind: Range, Eps: 1}
	for _, k := range []int{1, 10, len(union) + 3} {
		batch := []Query{{Set: q, Kind: KNN, K: k}, rangeQ}
		s1, l1, err1 := db.Open(context.Background(), batch)
		s2, _, err2 := other.Open(context.Background(), batch)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		got, err := MultiStep(context.Background(), []*Stream{s1[0], s2[0]}, k)
		if err != nil {
			t.Fatal(err)
		}
		s1[0].Close()
		s2[0].Close()
		want := all[:min(k, len(all))]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: knn k=%d over two streams\n got %v\nwant %v", ctx, k, got, want)
		}
		if s1[1] != nil || !reflect.DeepEqual(l1[1], one(db, rangeQ)) {
			t.Fatalf("%s: the range entry opened as %v, want %v", ctx, l1[1], one(db, rangeQ))
		}
	}
}

func TestMutatedViewDifferential(t *testing.T) {
	for card, prefix := range map[int]string{mutCard: "", mutOddCard: "card=7/"} {
		for _, backing := range []string{"heap", "mmap"} {
			for _, workers := range []int{1, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					t.Run(fmt.Sprintf("%s%s/workers=%d/seed=%d", prefix, backing, workers, seed), func(t *testing.T) {
						mutatedDifferential(t, card, backing == "mmap", workers, seed)
					})
				}
			}
		}
	}
}

// mutatedDifferential runs one differential schedule. Every check also
// hands a fixed mixed batch of pool queries to callers concurrent callers
// (checkConcurrentCallers); the subtests label that count "workers", the
// name it had when it counted refinement workers, so their names stay
// comparable across history.
func mutatedDifferential(t *testing.T, maxCard int, mapped bool, callers int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// A small pool sampled with replacement: the same set sits in the base,
	// in the delta and under tombstones at once, at distance 0 from the
	// queries drawn from the pool. The first entries are card-1 sets.
	pool := make([][][]float64, 40)
	for i := range pool {
		pool[i] = latticeSet(rng, 1+min(i/4, maxCard-1))
	}
	draw := func() [][]float64 { return pool[rng.Intn(len(pool))] }

	cfg := Config{Dim: mutDim, MaxCard: maxCard, MaxDelta: noAutoCompact, CompactRatio: noAutoCompact}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := bruteModel{}
	var live []uint64
	next := uint64(1)
	insert := func() {
		set := draw()
		if err := db.Insert(next, set); err != nil {
			t.Fatal(err)
		}
		model[next] = set
		live = append(live, next)
		next++
	}
	remove := func() {
		if len(live) == 0 {
			return
		}
		i := rng.Intn(len(live))
		if err := db.Delete(live[i]); err != nil {
			t.Fatal(err)
		}
		delete(model, live[i])
		live = append(live[:i], live[i+1:]...)
	}
	for i := 0; i < 120; i++ {
		insert()
	}
	db.Compact()
	if mapped {
		path := filepath.Join(t.TempDir(), "db.snap")
		if err := db.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		db, err = OpenFile(path, LoadOptions{MaxDelta: noAutoCompact, CompactRatio: noAutoCompact})
		if err != nil {
			t.Fatal(err)
		}
		if !db.Mapped() {
			t.Skip("snapshot not memory-mapped on this platform")
		}
	}
	defer db.Close()

	// A second, compacted database for the merged-funnel check: ids past
	// every id the schedule inserts, sets from the same pool.
	other, err := Open(Config{Dim: mutDim, MaxCard: maxCard})
	if err != nil {
		t.Fatal(err)
	}
	otherModel := bruteModel{}
	for i := uint64(0); i < 30; i++ {
		set := pool[(7*i)%uint64(len(pool))]
		if err := other.Insert(1_000_000+i, set); err != nil {
			t.Fatal(err)
		}
		otherModel[1_000_000+i] = set
	}

	check := func(ctx string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			checkAgainstBrute(t, db, model, draw(), ctx)
		}
		checkStreamsAgainstBrute(t, db, other, model, otherModel, draw(), ctx+" (two streams)")
		// Card-1 query against card-1 sets: bound == distance exactly.
		checkAgainstBrute(t, db, model, pool[rng.Intn(4)], ctx+" (card-1 query)")
		// Fixed pool entries, so the schedule's rng stream is the same at
		// every caller count.
		var qs []Query
		for i, q := range [][][]float64{pool[1], pool[17], pool[39]} {
			qs = append(qs, Query{Set: q, Kind: KNN, K: 10}, Query{Set: q, Kind: Range, Eps: 2},
				Query{Set: q, Kind: KNN, K: 5, Match: SetQuery{Partial: true, I: 1 + i}})
		}
		checkConcurrentCallers(t, db, qs, callers)
	}
	check("compacted")
	for step := 0; step < 150; step++ {
		switch r := rng.Intn(20); {
		case r < 10:
			insert()
		case r < 19:
			remove()
		default:
			db.Compact()
		}
		if step%10 == 9 {
			st := db.Stats()
			check(fmt.Sprintf("step %d (delta %d, tombstones %d)", step, st.DeltaLen, st.Tombstones))
		}
	}

	// Every base object tombstoned: answers come from the delta alone,
	// then from nothing.
	db.Compact()
	for len(live) > 0 {
		remove()
	}
	for i := 0; i < 12; i++ {
		insert()
	}
	if st := db.Stats(); st.DeltaLen != 12 || st.Tombstones == 0 || db.Len() != 12 {
		t.Fatalf("all-tombstoned setup: %+v", st)
	}
	check("all-tombstoned base")
	for len(live) > 0 {
		remove()
	}
	check("empty live set")
}

// mutatedFixture builds a compacted base of n clustered sets (the
// centroid bound is selective, as on the CAD corpora), then tombstones
// `tombs` base objects and inserts `delta` new ones without compacting.
// It returns the database and query sets drawn from the same clusters.
func mutatedFixture(tb testing.TB, n, delta, tombs, queries int) (*DB, [][][]float64) {
	tb.Helper()
	const dim, card = 6, 7
	rng := rand.New(rand.NewSource(19))
	clustered := func() [][]float64 {
		center := rng.NormFloat64() * 4
		s := make([][]float64, 3+rng.Intn(card-2))
		for i := range s {
			s[i] = make([]float64, dim)
			for j := range s[i] {
				s[i][j] = center + float64(i) + rng.NormFloat64()*0.3
			}
		}
		return s
	}
	db, err := Open(Config{Dim: dim, MaxCard: card, MaxDelta: noAutoCompact, CompactRatio: noAutoCompact})
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]uint64, n)
	sets := make([][][]float64, n)
	for i := range ids {
		ids[i], sets[i] = uint64(i+1), clustered()
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < tombs; i++ {
		if err := db.Delete(uint64(1 + i*(n/tombs))); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < delta; i++ {
		if err := db.Insert(uint64(n+1+i), clustered()); err != nil {
			tb.Fatal(err)
		}
	}
	if st := db.Stats(); st.DeltaLen != delta || st.Tombstones != tombs {
		tb.Fatalf("fixture: %+v", st)
	}
	qs := make([][][]float64, queries)
	for i := range qs {
		qs[i] = clustered()
	}
	return db, qs
}

// TestMutatedViewRefinementCount is the deterministic cost guard: with 64
// tombstones and 128 delta entries a query batch runs at most 1.25× the
// exact evaluations it runs after Compact(). (Over-fetching k+tombstones
// base neighbours and matching every delta entry ran more than 2×.)
func TestMutatedViewRefinementCount(t *testing.T) {
	db, sets := mutatedFixture(t, 3000, 128, 64, 40)
	defer db.Close()
	batch := append(batchOf(sets, Query{Kind: KNN, K: 10}), batchOf(sets[:10], Query{Kind: Range, Eps: 6})...)

	db.ResetRefinements()
	before := search(db, batch)
	mutated := db.Stats().Refinements
	db.Compact()
	db.ResetRefinements()
	after := search(db, batch)
	compacted := db.Stats().Refinements

	if !reflect.DeepEqual(before, after) {
		t.Fatal("answers changed across Compact()")
	}
	t.Logf("refinements: mutated %d, compacted %d (%.2f×)", mutated, compacted, float64(mutated)/float64(compacted))
	if compacted == 0 || float64(mutated) > 1.25*float64(compacted) {
		t.Fatalf("mutated view ran %d exact evaluations, compacted %d: more than 1.25×", mutated, compacted)
	}
}

var benchSink any

// BenchmarkSearchMutatedView: one exact 10-nn on a 5 000-object base with
// 128 delta entries and 32 tombstones, beside the same state compacted.
// The two must stay within a few percent of each other; a regression to
// over-fetch + full delta scan shows as mutated ≫ compacted.
func BenchmarkSearchMutatedView(b *testing.B) {
	db, sets := mutatedFixture(b, 5000, 128, 32, 64)
	defer db.Close()
	run := func(b *testing.B) {
		db.ResetRefinements()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = db.KNN(sets[i%len(sets)], 10)
		}
		b.ReportMetric(float64(db.Stats().Refinements)/float64(b.N), "refined/op")
	}
	b.Run("mutated", run)
	db.Compact()
	b.Run("compacted", run)
}

// BenchmarkCompact rebuilds the same mutated view (5 000-object base, 128
// delta entries, 32 tombstones) every iteration; B/op is the footprint of
// one new base.
func BenchmarkCompact(b *testing.B) {
	db, _ := mutatedFixture(b, 5000, 128, 32, 0)
	defer db.Close()
	v := db.cur.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = db.rebuildView(v, nil, nil, 0)
	}
}

// TestMutatedViewSignatureStage: a delta entry meets the signature stage
// exactly as it does once compaction has moved it into the base. Every
// set carries the corner vectors (−3, −3, −3) and (3, 3, 3) of the lattice,
// so every signature block — a base's centroid block or a delta entry's
// block of one — spans the same range on every axis and stores a given
// set with the same codes; and a range query holds one threshold in whatever order it
// visits candidates. So a range batch must settle the same candidates at
// each stage — equal SignaturePruned, Refinements and Matchings, equal
// answers — over an all-delta view, over a base with tombstones plus a
// delta, and over their compacted forms; and the stage must fire.
func TestMutatedViewSignatureStage(t *testing.T) {
	for _, maxCard := range []int{mutCard, mutOddCard} {
		ctx := fmt.Sprintf("MaxCard=%d", maxCard)
		rng := rand.New(rand.NewSource(int64(10*maxCard + 1)))
		cornered := func() [][]float64 {
			s := latticeSet(rng, 2+rng.Intn(maxCard-1))
			for j := range s[0] {
				s[0][j], s[1][j] = -3, 3
			}
			return s
		}
		db, err := Open(Config{Dim: mutDim, MaxCard: maxCard, MaxDelta: noAutoCompact, CompactRatio: noAutoCompact})
		if err != nil {
			t.Fatal(err)
		}
		model := bruteModel{}
		next := uint64(1)
		insert := func(n int) {
			for ; n > 0; n-- {
				set := cornered()
				if err := db.Insert(next, set); err != nil {
					t.Fatal(err)
				}
				model[next] = set
				next++
			}
		}
		queries := make([][][]float64, 12)
		for i := range queries {
			queries[i] = latticeSet(rng, 1+rng.Intn(maxCard))
		}
		run := func(batch []Query) ([][]Neighbor, Stats) {
			db.ResetRefinements()
			out := search(db, batch)
			return out, db.Stats()
		}
		same := func(what string) {
			t.Helper()
			// ε on exact ties: each query's 1st, 10th and 40th brute distance.
			var batch []Query
			for _, q := range queries {
				all := model.scan(q)
				for _, at := range []int{0, 9, 39} {
					batch = append(batch, Query{Set: q, Kind: Range, Eps: all[at].Dist})
				}
			}
			mutOut, mutSt := run(batch)
			db.Compact()
			cmpOut, cmpSt := run(batch)
			if !reflect.DeepEqual(mutOut, cmpOut) {
				t.Fatalf("%s, %s: answers changed across Compact()", ctx, what)
			}
			if mutSt.SignaturePruned != cmpSt.SignaturePruned || mutSt.Refinements != cmpSt.Refinements || mutSt.Matchings != cmpSt.Matchings {
				t.Fatalf("%s, %s: signature-pruned/refined/solved %d/%d/%d, compacted %d/%d/%d",
					ctx, what, mutSt.SignaturePruned, mutSt.Refinements, mutSt.Matchings, cmpSt.SignaturePruned, cmpSt.Refinements, cmpSt.Matchings)
			}
			if mutSt.SignaturePruned == 0 {
				t.Fatalf("%s, %s: the signature stage never fired", ctx, what)
			}
		}
		insert(150)
		same("all-delta view")
		for id := uint64(1); id <= 150; id += 7 {
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		}
		insert(60)
		same("base with tombstones + delta")
	}
}

// TestDeltaStreamOrder pins the delta walk to its contract: entries come
// out in ascending (centroid bound, insertion position) — ties, from
// entries inserted with the same set, by position — and the walk stops at
// the first bound past the threshold without consuming it.
func TestDeltaStreamOrder(t *testing.T) {
	const dim, card = 3, 4
	rng := rand.New(rand.NewSource(23))
	db, err := Open(Config{Dim: dim, MaxCard: card, MaxDelta: noAutoCompact, CompactRatio: noAutoCompact})
	if err != nil {
		t.Fatal(err)
	}
	var sets [][][]float64
	for i := 0; i < 200; i++ {
		if i%3 == 2 { // a duplicate of an earlier entry: a tied bound
			sets = append(sets, sets[rng.Intn(len(sets))])
			continue
		}
		s := make([][]float64, 1+rng.Intn(card))
		for j := range s {
			s[j] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		sets = append(sets, s)
	}
	for i, s := range sets {
		if err := db.Insert(uint64(i+1), s); err != nil {
			t.Fatal(err)
		}
	}
	v := db.cur.Load()
	query := vectorset.FlatFromRows(sets[0])
	cq := query.Centroid(card, db.omega)
	want := make([]deltaCand, len(v.deltaIDs))
	for i, id := range v.deltaIDs {
		want[i] = deltaCand{db.deltaBound(cq, v.delta[id]), i}
	}
	sort.Slice(want, func(a, b int) bool {
		return want[a].bound < want[b].bound || (want[a].bound == want[b].bound && want[a].pos < want[b].pos)
	})
	threshold := want[len(want)/2].bound
	s := &deltaStream{db: db, v: v, query: query}
	defer s.close()
	var got []deltaCand
	for {
		bound, pos, ok := s.Next(threshold)
		if !ok {
			break
		}
		got = append(got, deltaCand{bound, pos})
	}
	for {
		bound, pos, ok := s.Next(math.Inf(1))
		if !ok {
			break
		}
		got = append(got, deltaCand{bound, pos})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("delta walk order differs from the (bound, position) sort:\n got %v\nwant %v", got, want)
	}
}
