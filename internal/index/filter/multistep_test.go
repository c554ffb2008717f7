package filter

import (
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/vectorset"
)

// synthCand is one synthetic candidate: an id, its exact distance and a
// lower bound on it.
type synthCand struct {
	id       int
	d, bound float64
}

// synthStream is a Stream over given candidates, emitted in ascending
// (bound, position) order; it counts the candidates it is asked to refine.
type synthStream struct {
	cands   []synthCand
	next    int
	refined int
}

func newSynthStream(cands []synthCand) *synthStream {
	slices.SortStableFunc(cands, func(a, b synthCand) int { return cmp.Compare(a.bound, b.bound) })
	return &synthStream{cands: cands}
}

func (s *synthStream) Next(threshold float64) (float64, int, bool) {
	if s.next == len(s.cands) || vectorset.BoundExceeds(s.cands[s.next].bound, threshold) {
		return 0, 0, false
	}
	s.next++
	return s.cands[s.next-1].bound, s.next - 1, true
}

func (s *synthStream) Refine(pos int, threshold float64) (int, float64, bool) {
	s.refined++
	c := s.cands[pos]
	return c.id, c.d, c.d <= threshold
}

// referenceAnswer is the specification MultiStep must reproduce: every
// candidate within threshold, sorted under the (dist, id) contract with
// ids compared as uint64, truncated to k.
func referenceAnswer(lists [][]synthCand, k int, threshold float64) []index.Neighbor {
	var all []index.Neighbor
	for _, l := range lists {
		for _, c := range l {
			if c.d <= threshold {
				all = append(all, index.Neighbor{ID: c.id, Dist: c.d})
			}
		}
	}
	slices.SortFunc(all, func(a, b index.Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(uint64(a.ID), uint64(b.ID)))
	})
	return all[:min(k, len(all))]
}

// decodeMultiStepInput derives per-stream candidates and the k-nn's k
// from fuzz bytes: the first byte picks the stream count, the second k
// (−2..31: k ≤ 0 answers nothing), then 12-byte records follow —
// [stream, id lo, id hi, 8 bytes of float64 distance, bound]. The id's
// top bit moves it past 2⁶³; the distance is taken absolute (NaN records
// are dropped); the bound byte picks a lower bound on it: the distance
// itself, −Inf, 0, half of it, or the next float below it.
func decodeMultiStepInput(data []byte) ([][]synthCand, int) {
	if len(data) < 2 {
		return nil, 0
	}
	lists := make([][]synthCand, 1+int(data[0]%4))
	k := int(data[1]%34) - 2
	for rec := data[2:]; len(rec) >= 12; rec = rec[12:] {
		d := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(rec[3:11])))
		if math.IsNaN(d) {
			continue
		}
		raw := binary.LittleEndian.Uint16(rec[1:3])
		id := uint64(raw&0x7fff) | uint64(raw>>15)<<63
		bound := [...]float64{d, math.Inf(-1), 0, d / 2, math.Nextafter(d, math.Inf(-1))}[int(rec[11])%5]
		i := int(rec[0]) % len(lists)
		lists[i] = append(lists[i], synthCand{id: int(id), d: d, bound: bound})
	}
	return lists, k
}

// multiStepSeed encodes one fuzz input: stream count, k, then records of
// (stream, id, distance, bound selector).
func multiStepSeed(streams, k byte, recs ...[]byte) []byte {
	b := []byte{streams, k}
	for _, r := range recs {
		b = append(b, r...)
	}
	return b
}

func multiStepRec(stream byte, id uint16, d float64, bound byte) []byte {
	b := make([]byte, 12)
	b[0] = stream
	binary.LittleEndian.PutUint16(b[1:3], id)
	binary.LittleEndian.PutUint64(b[3:11], math.Float64bits(d))
	b[11] = bound
	return b
}

// FuzzMultiStep checks the one loop every query runs against the
// sort-and-truncate reference, over synthetic streams whose candidates
// carry a bound ≤ their distance — exact ties within and across streams,
// ids past 2⁶³, ±Inf and subnormals: the k-nn answer is the reference's
// first k; the ε-range answer, at ε equal to each candidate's distance
// and at +Inf, is every candidate within ε; and a range refines exactly
// the candidates whose bound is within ε, in whatever order.
func FuzzMultiStep(f *testing.F) {
	rec := multiStepRec
	k := func(k int) byte { return byte(k + 2) }
	// The merged shard lists of the sort-and-truncate identity.
	f.Add([]byte{})
	f.Add(multiStepSeed(1, k(4), rec(0, 1, 0.5, 0), rec(0, 2, 0.25, 0)))
	f.Add(multiStepSeed(1, k(3), rec(0, 7, 1.5, 0), rec(1, 3, 1.5, 0)))
	f.Add(multiStepSeed(2, k(2), rec(0, 7, 1.5, 0), rec(1, 3, 1.5, 0), rec(1, 5, 1.5, 0)))
	f.Add(multiStepSeed(3, k(2), rec(0, 9, 2, 0), rec(1, 9, 2, 0), rec(2, 9, 2, 0)))
	f.Add(multiStepSeed(2, k(0), rec(0, 1, 1, 0), rec(1, 2, 1, 0)))
	f.Add(multiStepSeed(3, k(1), rec(0, 4, math.Inf(1), 0), rec(1, 2, 0, 0), rec(2, 2, 5e-324, 0)))
	// Ties at the k-th place across streams, with the lower id last.
	f.Add(multiStepSeed(2, k(2), rec(0, 7, 1.5, 0), rec(1, 3, 1.5, 0)))
	f.Add(multiStepSeed(2, k(1), rec(0, 7, 1.5, 0), rec(1, 3, 1.5, 0)))
	f.Add(multiStepSeed(3, k(4), rec(0, 20, 0.25, 0), rec(0, 21, 2, 0), rec(1, 5, 0.25, 0), rec(2, 11, 0.25, 0), rec(2, 12, 0.5, 0)))
	f.Add(multiStepSeed(2, k(31), rec(0, 9, 0, 0), rec(1, 2, 0, 0), rec(1, 4, 0, 0)))
	f.Add(multiStepSeed(2, k(2), rec(0, 1, math.Nextafter(1, 2), 0), rec(1, 2, 1, 0)))
	f.Add(multiStepSeed(2, k(0), rec(0, 1, 1, 0), rec(1, 2, 2, 0)))
	f.Add(multiStepSeed(3, k(10), rec(0, 1, 1, 0), rec(2, 2, 2, 0)))
	f.Add(multiStepSeed(2, k(3)))
	// Loose bounds, and an id past 2⁶³ tying with 1.
	f.Add(multiStepSeed(2, k(1), rec(0, 0x8001, 1, 1), rec(1, 1, 1, 3)))
	f.Add(multiStepSeed(2, k(2), rec(0, 5, 3, 2), rec(0, 6, 1, 4), rec(1, 7, 2, 1), rec(1, 8, 0, 4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		lists, k := decodeMultiStepInput(data)
		walk := func(k int, threshold float64) ([]index.Neighbor, []*synthStream) {
			streams := make([]Stream, len(lists))
			synth := make([]*synthStream, len(lists))
			for i, l := range lists {
				synth[i] = newSynthStream(slices.Clone(l))
				streams[i] = synth[i]
			}
			got, err := MultiStep(context.Background(), streams, k, threshold)
			if err != nil {
				t.Fatal(err)
			}
			return got, synth
		}
		check := func(form string, got, want []index.Neighbor) {
			t.Helper()
			if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
				t.Fatalf("%s: loop %v, reference %v (streams %v)", form, got, want, lists)
			}
		}
		if k > 0 {
			got, _ := walk(k, math.Inf(1))
			check("knn", got, referenceAnswer(lists, k, math.Inf(1)))
		} else if got, _ := walk(k, math.Inf(1)); got != nil {
			t.Fatalf("knn k=%d: %v", k, got)
		}
		epss := []float64{math.Inf(1)}
		for _, l := range lists {
			for _, c := range l {
				epss = append(epss, c.d)
			}
		}
		for _, eps := range epss {
			got, synth := walk(math.MaxInt, eps)
			check("range", got, referenceAnswer(lists, math.MaxInt, eps))
			refined, within := 0, 0
			for i, s := range synth {
				refined += s.refined
				for _, c := range lists[i] {
					if !vectorset.BoundExceeds(c.bound, eps) {
						within++
					}
				}
			}
			if refined != within {
				t.Fatalf("range eps=%v refined %d candidates, %d have a bound within it (streams %v)", eps, refined, within, lists)
			}
		}
	})
}
