package filter

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/xtree"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// jitteredCentroids is the centroid column of parts × copies jittered
// random sets (the shape of the served corpus: a part and its near
// copies), plus the centroids of queries further jittered parts.
func jitteredCentroids(seed int64, parts, copies, queries int) (col []float64, qs [][]float64) {
	const K, D = 7, 6
	rng := rand.New(rand.NewSource(seed))
	omega := make([]float64, D)
	centroid := func(part [][]float64) []float64 {
		f := vectorset.Flat{Data: make([]float64, 0, len(part)*D), Card: len(part), Dim: D}
		for _, v := range part {
			for _, x := range v {
				f.Data = append(f.Data, x+rng.NormFloat64()*0.5)
			}
		}
		return f.Centroid(K, omega)
	}
	sets := randSets(seed+1, parts, K, D)
	for _, part := range sets {
		for c := 0; c < copies; c++ {
			col = append(col, centroid(part)...)
		}
	}
	for i := 0; i < queries; i++ {
		qs = append(qs, centroid(sets[rng.Intn(parts)]))
	}
	return col, qs
}

// rankingCorpora are centroid columns that stress different parts of the
// blocked ranking: continuous values (no ties), tight clusters (crowded
// buckets, many blocks with the same box), an exact-arithmetic lattice
// drawn with replacement (many exact d² ties, across block boundaries
// too, and duplicate centroids), and the continuous values with NaN and
// ±Inf coordinates sprinkled in (a NaN must not hide its block's finite
// members; an infinite one widens a box to ±Inf).
func rankingCorpora(n, dim int) map[string][]float64 {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(dim)))
	random := make([]float64, n*dim)
	for i := range random {
		random[i] = rng.NormFloat64() * 5
	}
	clustered := make([]float64, n*dim)
	centers := make([]float64, 8*dim)
	for i := range centers {
		centers[i] = rng.NormFloat64() * 20
	}
	for i := 0; i < n; i++ {
		c := rng.Intn(8)
		for j := 0; j < dim; j++ {
			clustered[i*dim+j] = centers[c*dim+j] + rng.NormFloat64()*0.01
		}
	}
	lattice := make([]float64, n*dim)
	for i := range lattice {
		lattice[i] = float64(rng.Intn(3)) / 4
	}
	nonFinite := slices.Clone(random)
	for i := range nonFinite {
		switch rng.Intn(40) {
		case 0:
			nonFinite[i] = math.NaN()
		case 1:
			nonFinite[i] = math.Inf(1)
		case 2:
			nonFinite[i] = math.Inf(-1)
		}
	}
	return map[string][]float64{"random": random, "clustered": clustered, "lattice": lattice, "nonfinite": nonFinite}
}

// bruteRanking is every position with a non-NaN squared distance to q,
// in (d², position) order: what a ranking pulled to exhaustion emits.
func bruteRanking(col []float64, dim int, q []float64) []ranked {
	var all []ranked
	for i := 0; i < len(col)/dim; i++ {
		if d := squaredDistance(col, dim, i, q); d == d {
			all = append(all, ranked{d, int32(i)})
		}
	}
	slices.SortFunc(all, compareRanked)
	return all
}

func columnRows(col []float64, dim int) ([][]float64, []int) {
	rows := make([][]float64, len(col)/dim)
	pos := make([]int, len(rows))
	for i := range rows {
		rows[i], pos[i] = col[i*dim:(i+1)*dim], i
	}
	return rows, pos
}

// blockOrdered returns col stored in block order (vectorset.BlockOrder,
// with each row's position as its id), as a served base holds it.
func blockOrdered(col []float64, dim int) []float64 {
	n := len(col) / dim
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	out := make([]float64, 0, len(col))
	for _, i := range vectorset.BlockOrder(ids, col, dim) {
		out = append(out, col[i*dim:(i+1)*dim]...)
	}
	return out
}

// TestFlatRankingMatchesTree pulls the blocked ranking to exhaustion under
// a random non-increasing reach — held at +Inf for the first `blind` pulls,
// as a loop does whose nearest candidates are all dead (the first chunk
// doubles until it holds them), or finite from the first pull when blind
// is 0 — at sizes around the block length, over each column as generated
// (an arbitrary order, as a file from an older writer holds it) and in
// block order (as a served base holds it), and checks it against a brute
// force: exactly the (d², position)-ordered prefix of every non-NaN
// position, and nothing within the final reach left out. On the finite
// columns it also checks it against an STR-bulk-loaded X-tree's ranking
// pulled as far: the same Dist bits at every rank, the same positions per
// distinct Dist (the X-tree breaks exact ties in heap order, the blocked
// ranking by position). The range form must return the brute force's set
// within the reach, and the tree's.
func TestFlatRankingMatchesTree(t *testing.T) {
	const k = 10
	for _, dim := range []int{6, 3} { // the unrolled kernel and the generic one
		for _, n := range []int{0, 1, k - 1, k, vectorset.BlockLen - 1, vectorset.BlockLen, vectorset.BlockLen + 1, 10_000} {
			for name, col := range rankingCorpora(n, dim) {
				for _, order := range []string{"generated", "block"} {
					if order == "block" {
						col = blockOrdered(col, dim)
					}
					flat := newBlockRanker(col, n, dim, storage.DefaultPageSize, nil)
					rows, pos := columnRows(col, dim)
					rng := rand.New(rand.NewSource(int64(n + dim)))
					for qi := 0; qi < 6; qi++ {
						ctx := fmt.Sprintf("dim=%d n=%d %s %s-order query %d", dim, n, name, order, qi)
						q := make([]float64, dim)
						for j := range q {
							q[j] = rng.NormFloat64() * 5
							if name == "lattice" {
								q[j] = float64(rng.Intn(3)) / 4
							}
						}
						blind := []int{0, k, 3 * minChunk}[qi%3]

						// Flat, to exhaustion. With no blind pulls the reach is
						// held from the first pull, widened as Index.reach widens
						// a loop's threshold.
						reach := math.Inf(1)
						if blind == 0 && n > 0 {
							reach = math.Sqrt(squaredDistance(col, dim, rng.Intn(n), q)) * reachSlack
						}
						rk := flat.rank(q, k)
						var got []ranked
						for {
							if len(got) == blind && blind > 0 && n > 0 {
								reach = math.Sqrt(squaredDistance(col, dim, rng.Intn(n), q))
							} else if len(got) > blind {
								reach *= 1 - rng.Float64()*0.02
							}
							nb, ok := rk.next(reach)
							if !ok {
								break
							}
							it := ranked{nb.Dist * nb.Dist, int32(nb.ID)}
							if nb.Dist != math.Sqrt(squaredDistance(col, dim, nb.ID, q)) {
								t.Fatalf("%s: rank %d: position %d at %v, want %v", ctx, len(got), nb.ID, nb.Dist, math.Sqrt(squaredDistance(col, dim, nb.ID, q)))
							}
							it.d2 = squaredDistance(col, dim, nb.ID, q)
							if len(got) > 0 && !got[len(got)-1].less(it) {
								t.Fatalf("%s: rank %d: %+v does not follow %+v", ctx, len(got), it, got[len(got)-1])
							}
							got = append(got, it)
						}
						rk.release()
						brute := bruteRanking(col, dim, q)
						if len(got) > len(brute) || !slices.Equal(got, brute[:len(got)]) {
							t.Fatalf("%s: %d emitted are not the brute force's first %d of %d", ctx, len(got), len(got), len(brute))
						}
						within := 0
						for _, it := range brute {
							if math.Sqrt(it.d2) <= reach {
								within++
							}
						}
						if len(got) < within {
							t.Fatalf("%s: ranking ended after %d candidates, %d lie within the final reach %v", ctx, len(got), within, reach)
						}
						if n == 0 {
							continue
						}
						eps := math.Sqrt(squaredDistance(col, dim, rng.Intn(n), q))
						if !(eps < math.Inf(1)) {
							eps = math.Sqrt(brute[len(brute)/2].d2)
						}
						var inReach []int
						for _, it := range brute {
							if it.d2 <= eps*reachSlack*eps*reachSlack {
								inReach = append(inReach, int(it.pos))
							}
						}
						var inRange []int
						for _, nb := range rangeRanking(flat, q, eps*reachSlack) {
							inRange = append(inRange, nb.ID)
						}
						slices.Sort(inRange)
						slices.Sort(inReach)
						if !slices.Equal(inRange, inReach) {
							t.Fatalf("%s: range to %v: %d positions, brute force %d", ctx, eps, len(inRange), len(inReach))
						}
						if name == "nonfinite" {
							continue // the X-tree is not held to NaN coordinates
						}

						// The tree, as far.
						tree := xtree.BulkLoad(rows, pos, xtree.Config{})
						tr := tree.NewRanking(q)
						want := make(map[float64][]int)
						for i := range got {
							nb, ok := tr.Next()
							if !ok {
								t.Fatalf("%s: the tree ranks %d points, flat emitted %d", ctx, i, len(got))
							}
							if math.Float64bits(nb.Dist) != math.Float64bits(math.Sqrt(got[i].d2)) {
								t.Fatalf("%s: rank %d: flat %v, tree %v", ctx, i, math.Sqrt(got[i].d2), nb.Dist)
							}
							want[nb.Dist] = append(want[nb.Dist], nb.ID)
						}
						last := math.Sqrt(got[len(got)-1].d2)
						for { // the rest of the last tie group, which flat may have cut by position
							nb, ok := tr.Next()
							if !ok || nb.Dist != last {
								break
							}
							want[last] = append(want[last], nb.ID)
						}
						have := make(map[float64][]int)
						for _, it := range got {
							have[math.Sqrt(it.d2)] = append(have[math.Sqrt(it.d2)], int(it.pos))
						}
						for d, ids := range have {
							w := want[d]
							sort.Ints(w)
							if d == last {
								w = w[:len(ids)] // flat takes a tie group in position order
							}
							if !reflect.DeepEqual(ids, w) {
								t.Fatalf("%s: positions at distance %v\n flat %v\n tree %v", ctx, d, ids, w)
							}
						}

						// Range.
						a, b := rangeRanking(flat, q, eps*reachSlack), rangeRanking(treeRanker{tree}, q, eps*reachSlack)
						index.SortNeighbors(a)
						index.SortNeighbors(b)
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("%s: range to %v: flat %d positions, tree %d", ctx, eps, len(a), len(b))
						}
					}
				}
			}
		}
	}
}

// rangeRanking is a range's walk over a ranking: reach held from the first
// pull, pulled to exhaustion.
func rangeRanking(r ranker, q []float64, reach float64) []index.Neighbor {
	rk := r.rank(q, 0)
	defer rk.release()
	var out []index.Neighbor
	for {
		nb, ok := rk.next(reach)
		if !ok {
			return out
		}
		out = append(out, nb)
	}
}

func squaredDistance(col []float64, dim, i int, q []float64) float64 {
	s := 0.0
	for j, c := range col[i*dim : (i+1)*dim] {
		e := c - q[j]
		s += e * e
	}
	return s
}

// TestFlatRankingAllocatesNothing: a steady-state ranking — block
// distances, first chunk, collect, buckets — runs entirely in the index's
// pooled scratch (the query's signature quantizations too),
// and a whole KNNFlat on a store-backed index allocates only what it
// hands back or must outlive the call: the answer and the query centroid.
func TestFlatRankingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector")
	}
	col, qs := jitteredCentroids(3, 250, 8, 16)
	flat := newBlockRanker(col, len(col)/6, 6, storage.DefaultPageSize, nil)
	pull := func(q []float64) {
		rk := flat.rank(q, 10)
		reach := math.Inf(1)
		for i := 0; i < 300; i++ {
			nb, ok := rk.next(reach)
			if !ok {
				break
			}
			if i == 40 {
				reach = 3 * nb.Dist
			}
		}
		rk.release()
	}
	i := 0
	pull(qs[0])
	if a := testing.AllocsPerRun(50, func() { i++; pull(qs[i%len(qs)]) }); a != 0 {
		t.Errorf("a flat ranking allocates %v times per query, want 0", a)
	}

	const K, D = 7, 6
	cfg := Config{K: K, Dim: D}
	var flats []vectorset.Flat
	var ids []int
	for i, s := range randSets(9, 2000, K, D) {
		flats = append(flats, vectorset.FlatFromRows(s))
		ids = append(ids, i)
	}
	ix := bulkFromFlats(t, cfg, flats, ids)
	ix.KNNFlat(flats[0], 10)
	if a := testing.AllocsPerRun(50, func() { i++; ix.KNNFlat(flats[i%len(flats)], 10) }); a > 2 {
		t.Errorf("KNNFlat on a store-backed index allocates %v times per query, want ≤ 2 (answer, query centroid)", a)
	}
}

// TestFlatRankingNonFinite: a NaN stored centroid is never a candidate, a
// ±Inf one ranks last, and a NaN query centroid ranks nothing — each a
// defined, terminating result (CheckCentroids verifies CRCs, not
// finiteness, so a well-formed file can carry them).
func TestFlatRankingNonFinite(t *testing.T) {
	const K, D, n = 4, 3, 200
	cfg := Config{K: K, Dim: D}
	st, ids := storeCorpus(t, n, cfg)
	const nan, inf = 17, 101
	st.cents[nan*D+1] = math.NaN()
	st.cents[inf*D] = math.Inf(-1)
	ix, err := NewBulkStore(cfg, st, ids, StoreBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := st.sets[3]
	all := ix.KNNFlat(q, n)
	if len(all) != n-1 {
		t.Fatalf("k = n returns %d objects, want all but the NaN-centroid one (%d)", len(all), n-1)
	}
	// The −Inf-centroid object's bound is +Inf: k = n reaches it last (no
	// k-th distance ever excludes it), a finite threshold never does.
	var finite []index.Neighbor
	for _, nb := range all {
		if nb.ID == ids[nan] {
			t.Fatalf("the NaN-centroid object %d was ranked", nb.ID)
		}
		if nb.ID != ids[inf] {
			finite = append(finite, nb)
		}
	}
	if len(finite) != n-2 {
		t.Fatal("k = n misses the −Inf-centroid object")
	}
	if got := ix.KNNFlat(q, 5); !reflect.DeepEqual(got, finite[:5]) {
		t.Fatalf("k = 5\n got %v\nwant %v", got, finite[:5])
	}
	if got := ix.RangeFlat(q, finite[20].Dist); !reflect.DeepEqual(got, finite[:21]) {
		t.Fatalf("range to the 21st distance\n got %v\nwant %v", got, finite[:21])
	}
	bad := vectorset.Flat{Data: append([]float64(nil), q.Data...), Card: q.Card, Dim: q.Dim}
	bad.Data[0] = math.NaN()
	if got := ix.KNNFlat(bad, 5); len(got) != 0 {
		t.Fatalf("a NaN query centroid ranked %v", got)
	}
	if got := ix.RangeFlat(bad, 1e9); len(got) != 0 {
		t.Fatalf("a NaN query centroid ranged over %v", got)
	}
}

// clusteredCentroids is a voxload-shaped column: parts drawn around
// parts/32 family templates (cadgen's families of similar CAD parts), each
// stored as copies jittered by N(0, 0.5) — the corpus voxload serves —
// and queries that are stored parts jittered by N(0, 0.3), as voxload's
// are.
func clusteredCentroids(seed int64, parts, copies, queries int) (col []float64, qs [][]float64) {
	const K, D = 7, 6
	rng := rand.New(rand.NewSource(seed))
	omega := make([]float64, D)
	jitter := func(set [][]float64, sigma float64) [][]float64 {
		out := make([][]float64, len(set))
		for i, v := range set {
			out[i] = make([]float64, D)
			for c := range v {
				out[i][c] = v[c] + rng.NormFloat64()*sigma
			}
		}
		return out
	}
	families := randSets(seed+1, parts/32, K, D)
	sets := make([][][]float64, parts)
	for p := range sets {
		sets[p] = jitter(families[p%len(families)], 1.5)
		for c := 0; c < copies; c++ {
			col = append(col, vectorset.FlatFromRows(jitter(sets[p], 0.5)).Centroid(K, omega)...)
		}
	}
	for i := 0; i < queries; i++ {
		qs = append(qs, vectorset.FlatFromRows(jitter(sets[rng.Intn(parts)], 0.3)).Centroid(K, omega))
	}
	return col, qs
}

// BenchmarkCentroidRanking prices the ranking seam alone, the way the
// k-nn loop drives it: per query (1 024 distinct ones — one repeated
// query lets the branch predictor learn the heap), pull the first 10
// candidates with no bound, then keep pulling under a reach that shrinks
// from the distance of the 2·pull-th nearest centroid to that of the
// pull-th, until pull candidates are out — 400 of 10 k, 1 300 of 100 k,
// what the served corpus lets past Lemma 2 per query at those sizes. The
// columns are jitteredCentroids (10k, 100k: random parts, 8 copies each)
// and clusteredCentroids (clustered-10k, clustered-100k: parts in
// families, voxload's shape). flat is what NewBulkStore ranks a base
// with, stored in block order; flat-idorder ranks the same column in the
// order it was generated, parts by id, as a file from a writer that did
// not order its objects holds it; xtree is an STR-bulk-loaded tree — what
// the served path ranked with before and what the paper's disk model
// favours. pages/op is the tracker's charge per query, blocks/op the
// centroid blocks whose rows a flat ranking read.
func BenchmarkCentroidRanking(b *testing.B) {
	const D, queries = 6, 1024
	for _, size := range []struct {
		name        string
		parts, pull int
		column      func(seed int64, parts, copies, queries int) ([]float64, [][]float64)
	}{
		{"10k", 1250, 400, jitteredCentroids},
		{"100k", 12500, 1300, jitteredCentroids},
		{"clustered-10k", 1250, 400, clusteredCentroids},
		{"clustered-100k", 12500, 1300, clusteredCentroids},
	} {
		idOrder, qs := size.column(11, size.parts, 8, queries)
		col := blockOrdered(idOrder, D)
		n := len(col) / D
		rows, pos := columnRows(col, D)
		var tr storage.Tracker
		rankers := []struct {
			name string
			r    ranker
		}{
			{"xtree", treeRanker{xtree.BulkLoad(rows, pos, xtree.Config{Tracker: &tr})}},
			{"flat", newBlockRanker(col, n, D, storage.DefaultPageSize, &tr)},
			{"flat-idorder", newBlockRanker(idOrder, n, D, storage.DefaultPageSize, &tr)},
		}
		// The reach schedule of each query, from the tree's own order.
		type schedule struct{ from, to float64 }
		sched := make([]schedule, queries)
		for i, q := range qs {
			rk := rankers[0].r.rank(q, 10)
			for j := 1; j <= 2*size.pull; j++ {
				nb, _ := rk.next(math.Inf(1))
				if j == size.pull {
					sched[i].to = nb.Dist
				}
				sched[i].from = nb.Dist
			}
		}
		for _, rr := range rankers {
			if flat, ok := rr.r.(*blockRanker); ok {
				flat.boxes() // built by the first ranking in service; not priced here
			}
			b.Run(rr.name+"/"+size.name, func(b *testing.B) {
				b.ReportAllocs()
				tr.Reset()
				for i := 0; i < b.N; i++ {
					s := sched[i%queries]
					shrink := math.Pow(s.to/s.from, 1/float64(size.pull))
					rk := rr.r.rank(qs[i%queries], 10)
					reach, pulled := math.Inf(1), 0
					for ; pulled < size.pull; pulled++ {
						if pulled == 10 {
							reach = s.from
						}
						if _, ok := rk.next(reach); !ok {
							break
						}
						reach *= shrink
					}
					rk.release()
					if pulled < size.pull-1 { // the last reach may round below the pull-th distance
						b.Fatalf("query %d: ranking ended after %d of %d candidates", i%queries, pulled, size.pull)
					}
				}
				b.ReportMetric(float64(tr.PageAccesses())/float64(b.N), "pages/op")
				if flat, ok := rr.r.(*blockRanker); ok {
					rowBytes := float64(tr.BytesRead())/float64(b.N) - float64(len(flat.box)*8)
					b.ReportMetric(rowBytes/(vectorset.BlockLen*D*8), "blocks/op")
				}
			})
		}
	}
}
