// Package vectorset provides the vector set object representation of
// paper §4: a CAD object is a set of at most k d-dimensional feature
// vectors. It implements the extended centroid (Definition 8) whose
// Euclidean distance, scaled by k, lower-bounds the minimal matching
// distance (Lemma 2) — the filter step of §4.3 — plus a compact binary
// serialization used by the page-storage simulation.
package vectorset

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Set is a vector set: up to MaxK() vectors of equal dimension.
type Set struct {
	Vectors [][]float64
}

// New wraps the given vectors as a Set, validating equal dimensions.
func New(vectors [][]float64) Set {
	if len(vectors) > 0 {
		d := len(vectors[0])
		for i, v := range vectors {
			if len(v) != d {
				panic(fmt.Sprintf("vectorset: vector %d has dim %d, want %d", i, len(v), d))
			}
		}
	}
	return Set{Vectors: vectors}
}

// Card returns the cardinality |X| of the set.
func (s Set) Card() int { return len(s.Vectors) }

// Dim returns the dimension of the vectors (0 for the empty set).
func (s Set) Dim() int {
	if len(s.Vectors) == 0 {
		return 0
	}
	return len(s.Vectors[0])
}

// Centroid computes the extended centroid C_{k,ω}(X) of Definition 8:
//
//	C_{k,ω}(X) = (Σ x_i + (k − |X|)·ω) / k.
//
// The set's cardinality must not exceed k. ω must have the set's
// dimension (any dimension is accepted for the empty set).
func (s Set) Centroid(k int, omega []float64) []float64 {
	if s.Card() > k {
		panic(fmt.Sprintf("vectorset: cardinality %d exceeds k = %d", s.Card(), k))
	}
	d := s.Dim()
	if d == 0 {
		d = len(omega)
	}
	if len(omega) != d {
		panic(fmt.Sprintf("vectorset: ω has dim %d, want %d", len(omega), d))
	}
	c := make([]float64, d)
	for _, v := range s.Vectors {
		for i := range c {
			c[i] += v[i]
		}
	}
	pad := float64(k - s.Card())
	for i := range c {
		c[i] = (c[i] + pad*omega[i]) / float64(k)
	}
	return c
}

// CentroidLowerBound returns k·‖C(X) − C(Y)‖₂ given two precomputed
// extended centroids: by Lemma 2 this never exceeds the minimal matching
// distance of the underlying sets (with Euclidean ground distance and
// w_ω weights).
func CentroidLowerBound(cx, cy []float64, k int) float64 {
	if len(cx) != len(cy) {
		panic("vectorset: centroid dimension mismatch")
	}
	sum := 0.0
	for i := range cx {
		d := cx[i] - cy[i]
		sum += d * d
	}
	return float64(k) * math.Sqrt(sum)
}

// boundSlack is 1 − 4·2⁻⁵², the one-sided tolerance of BoundExceeds.
const boundSlack = 1 - 0x1p-50

// BoundExceeds reports whether a computed Lemma 2 bound proves its object
// farther than threshold (the current k-th distance, ε). The bound is a
// lower bound in exact arithmetic only: the centroid divides by k and the
// norm takes a root, so when k is not a power of two the computed bound
// of a pair can land an ulp or two above the pair's computed distance,
// and a bare bound > threshold would then prune an object that ties the
// threshold exactly. Every filter-stage comparison goes through this one
// test; the slack only ever makes pruning less eager, never wrong. (It
// covers the rounding of the division, the squares and the root — not
// the cancellation between two centroids far from the origin and close
// to each other, which no fixed relative slack could.) A NaN or +Inf
// threshold prunes nothing.
func BoundExceeds(bound, threshold float64) bool {
	return bound*boundSlack > threshold
}

// ---------------------------------------------------------------------------
// Serialization (little-endian): uint32 cardinality, uint32 dimension,
// then cardinality·dimension float64 values.

// EncodedSize returns the serialized byte size of a set with the given
// cardinality and dimension.
func EncodedSize(card, dim int) int { return 8 + card*dim*8 }

// WriteTo serializes the set. It implements io.WriterTo.
func (s Set) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, EncodedSize(s.Card(), s.Dim()))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(s.Card()))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(s.Dim()))
	off := 8
	for _, v := range s.Vectors {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(x))
			off += 8
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadFrom deserializes a set previously written with WriteTo. It
// implements io.ReaderFrom.
func (s *Set) ReadFrom(r io.Reader) (int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	card := int(binary.LittleEndian.Uint32(hdr[0:4]))
	dim := int(binary.LittleEndian.Uint32(hdr[4:8]))
	// Bound each field separately before multiplying — the product of two
	// hostile 32-bit values can overflow int and bypass a combined check.
	const maxReasonable = 1 << 20
	if card < 0 || dim < 0 || card > maxReasonable || dim > maxReasonable ||
		card*dim > maxReasonable {
		return 8, fmt.Errorf("vectorset: implausible header card=%d dim=%d", card, dim)
	}
	body := make([]byte, card*dim*8)
	if _, err := io.ReadFull(r, body); err != nil {
		return 8, err
	}
	// Decode into one flat buffer and slice per-vector views over it —
	// two allocations per set instead of one per vector; the vectors
	// stay independent []float64 values for every caller.
	data := make([]float64, card*dim)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	s.Vectors = (Flat{Data: data, Card: card, Dim: dim}).Rows()
	return int64(8 + len(body)), nil
}
