// Package recall measures the approximate sketch candidate tier
// (DESIGN.md §12) against the exact engine it approximates, and
// scan-to-CAD retrieval from damaged rescans (DESIGN.md §14). The same
// queries run through both engines side by side, and the harness
// reports recall@k, ε-recall and mean latency per query — plus
// byte-exact transcripts for pinning the contract that an unconfigured
// approximate path IS the exact engine. The recall floors run as tests;
// BenchmarkApproxCurve and BenchmarkDegradedRecall produce the
// EXPERIMENTS.md tables.
//
// The harness is engine-agnostic: it sees a k-nn engine as a KNNFunc and
// a range engine as a RangeFunc, so a vsdb database, a sharded cluster
// coordinator and an HTTP round trip all measure through the same code.
package recall

import (
	"encoding/binary"
	"math"
	"time"

	"github.com/voxset/voxset/internal/vsdb"
)

// KNNFunc answers one k-nn query.
type KNNFunc func(query [][]float64, k int) []vsdb.Neighbor

// RangeFunc answers one ε-range query.
type RangeFunc func(query [][]float64, eps float64) []vsdb.Neighbor

// RecallAtK returns the fraction of the exact result set the
// approximate result recovered, by id. An empty exact result counts as
// recall 1: there was nothing to miss.
func RecallAtK(approx, exact []vsdb.Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	ids := make(map[uint64]struct{}, len(exact))
	for _, nb := range exact {
		ids[nb.ID] = struct{}{}
	}
	hit := 0
	for _, nb := range approx {
		if _, ok := ids[nb.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// Report summarizes one EvalKNN run.
type Report struct {
	Queries    int
	K          int
	MeanRecall float64 // mean per-query recall@k
	MinRecall  float64 // worst per-query recall@k
	// Exact and Approx are the mean latencies per query — on one worker,
	// the CPU a query costs.
	Exact, Approx time.Duration
	// CandidatesPerQuery is the mean number of candidates the sketch
	// tier proposed per query, when EvalKNN was given a candidate
	// counter; 0 otherwise.
	CandidatesPerQuery float64
}

// EvalKNN runs every query through both engines and reports recall@k
// and mean latencies. candidates, if non-nil, is read before and after
// the approximate pass (e.g. (*vsdb.DB).Stats().SketchCandidates) to
// price the tier's candidate volume.
func EvalKNN(queries [][][]float64, k int, approx, exact KNNFunc, candidates func() int64) Report {
	r := Report{Queries: len(queries), K: k, MinRecall: 1}
	if len(queries) == 0 {
		return r
	}
	var before int64
	if candidates != nil {
		before = candidates()
	}
	sum := 0.0
	for _, q := range queries {
		t0 := time.Now()
		a := approx(q, k)
		t1 := time.Now()
		e := exact(q, k)
		r.Approx += t1.Sub(t0)
		r.Exact += time.Since(t1)
		rec := RecallAtK(a, e)
		sum += rec
		if rec < r.MinRecall {
			r.MinRecall = rec
		}
	}
	n := len(queries)
	r.MeanRecall = sum / float64(n)
	r.Approx /= time.Duration(n)
	r.Exact /= time.Duration(n)
	if candidates != nil {
		r.CandidatesPerQuery = float64(candidates()-before) / float64(len(queries))
	}
	return r
}

// RangeReport summarizes one EvalRange run. ε-recall is the recovered
// fraction of the exact ε-sphere; because refinement keeps distances
// exact, the approximate hits are always a subset of the exact ones and
// ε-recall is the complete accuracy story for range queries.
type RangeReport struct {
	Queries       int
	Eps           float64
	MeanEpsRecall float64
	MinEpsRecall  float64
	// Exact and Approx are the mean latencies per query, as in Report.
	Exact, Approx time.Duration
}

// EvalRange runs every query through both engines and reports ε-recall
// and mean latencies.
func EvalRange(queries [][][]float64, eps float64, approx, exact RangeFunc) RangeReport {
	r := RangeReport{Queries: len(queries), Eps: eps, MinEpsRecall: 1}
	if len(queries) == 0 {
		return r
	}
	sum := 0.0
	for _, q := range queries {
		t0 := time.Now()
		a := approx(q, eps)
		t1 := time.Now()
		e := exact(q, eps)
		r.Approx += t1.Sub(t0)
		r.Exact += time.Since(t1)
		rec := RecallAtK(a, e)
		sum += rec
		if rec < r.MinEpsRecall {
			r.MinEpsRecall = rec
		}
	}
	n := len(queries)
	r.MeanEpsRecall = sum / float64(n)
	r.Approx /= time.Duration(n)
	r.Exact /= time.Duration(n)
	return r
}

// Transcript runs every query through fn and serializes the full result
// stream — ids and the exact bit patterns of the distances — into one
// byte string. Two engines are answer-for-answer identical on a workload
// iff their transcripts are byte-identical; tests pin the approx-off
// contract (and cross-worker determinism) by comparing these.
func Transcript(queries [][][]float64, k int, fn KNNFunc) []byte {
	var out []byte
	var b [8]byte
	for _, q := range queries {
		res := fn(q, k)
		binary.LittleEndian.PutUint64(b[:], uint64(len(res)))
		out = append(out, b[:]...)
		for _, nb := range res {
			binary.LittleEndian.PutUint64(b[:], nb.ID)
			out = append(out, b[:]...)
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(nb.Dist))
			out = append(out, b[:]...)
		}
	}
	return out
}

// RangeTranscript is Transcript for ε-range engines.
func RangeTranscript(queries [][][]float64, eps float64, fn RangeFunc) []byte {
	return Transcript(queries, 0, func(q [][]float64, _ int) []vsdb.Neighbor { return fn(q, eps) })
}
