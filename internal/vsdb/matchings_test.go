package vsdb

import (
	"math/rand"
	"testing"
)

// TestMatchingsGuard pins the refinement counters on a fixed-seed corpus
// (250 parts × 8 jittered copies, then 100 delta inserts and 30
// tombstones, 40 k = 10 queries in one batch):
//
//   - SignaturePruned + Refinements — every candidate the centroid filter
//     let through — does not depend on the later stages, because neither
//     changes the k-th distance the loop holds at any step, so neither
//     changes which candidates reach them;
//   - Refinements — candidates handed to the kernel — is the count the
//     signature stage leaves (it was all of them);
//   - Matchings — solves run — is a small share of those.
func TestMatchingsGuard(t *testing.T) {
	const dim, card = 6, 7
	// Measured on this test: 42 425 candidates pass the centroid filter and
	// 31 493 of them are refined.
	const centroidSurvivors, refinements = 42425, 31493
	rng := rand.New(rand.NewSource(20))
	jitter := func(set [][]float64) [][]float64 {
		out := make([][]float64, len(set))
		for i, v := range set {
			out[i] = make([]float64, dim)
			for c := range v {
				out[i][c] = v[c] + rng.NormFloat64()*0.5
			}
		}
		return out
	}
	parts := make([][][]float64, 250)
	for p := range parts {
		parts[p] = make([][]float64, 1+rng.Intn(card))
		for i := range parts[p] {
			parts[p][i] = make([]float64, dim)
			for c := range parts[p][i] {
				parts[p][i][c] = rng.NormFloat64() * 5
			}
		}
	}
	db, err := Open(Config{Dim: dim, MaxCard: card, MaxDelta: noAutoCompact, CompactRatio: noAutoCompact})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	var sets [][][]float64
	for p, part := range parts {
		for c := 0; c < 8; c++ {
			ids = append(ids, uint64(p*8+c))
			sets = append(sets, jitter(part))
		}
	}
	if err := db.BulkInsert(ids, sets); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Insert(uint64(10_000+i), jitter(parts[rng.Intn(len(parts))])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := db.Delete(uint64(i * 61)); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([]Query, 40)
	for i := range qs {
		qs[i] = Query{Set: jitter(parts[i*6]), Kind: KNN, K: 10}
	}
	db.ResetRefinements()
	search(db, qs)
	st := db.Stats()
	if got := st.SignaturePruned + st.Refinements; got != centroidSurvivors {
		t.Errorf("SignaturePruned + Refinements = %d, want %d: the later stages must not change which candidates pass the centroid filter", got, centroidSurvivors)
	}
	if st.Refinements != refinements {
		t.Errorf("Refinements = %d, want %d: the signature stage settles a different share of the candidates", st.Refinements, refinements)
	}
	if float64(st.Matchings) > 0.15*float64(st.Refinements) {
		t.Errorf("Matchings = %d of %d refinements (> 15 %%): the assignment bound is not settling candidates", st.Matchings, st.Refinements)
	}
	if st.Matchings < int64(len(qs))*10 {
		t.Errorf("Matchings = %d: each of %d queries must solve at least its k = 10 answers", st.Matchings, len(qs))
	}
}
