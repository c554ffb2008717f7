package vectorset

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Flat is a vector set on one contiguous backing buffer: Card vectors of
// Dim components, row-major, so vector i occupies Data[i*Dim:(i+1)*Dim].
// It is the hot-path representation (DESIGN.md §10): one allocation per
// set instead of one per vector, cache-line-friendly sequential access
// for the distance kernels, and zero-copy Row views for every caller
// that still wants a []float64.
//
// A Flat is a view type: copying the struct aliases the same buffer.
// The aliasing rule is the same as for slices — whoever publishes a Flat
// into an immutable structure (a vsdb epoch view, a query result) must
// own Data exclusively and never write it afterwards.
type Flat struct {
	Data []float64 // len Card*Dim
	Card int
	Dim  int
}

// FlatFromRows copies rows into a freshly allocated flat buffer. Rows
// must be equal-dimensioned (panics otherwise, like New).
func FlatFromRows(rows [][]float64) Flat {
	if len(rows) == 0 {
		return Flat{}
	}
	d := len(rows[0])
	data := make([]float64, len(rows)*d)
	for i, v := range rows {
		if len(v) != d {
			panic(fmt.Sprintf("vectorset: vector %d has dim %d, want %d", i, len(v), d))
		}
		copy(data[i*d:], v)
	}
	return Flat{Data: data, Card: len(rows), Dim: d}
}

// Row returns the zero-copy view of vector i. The view is capped at the
// row boundary, so an append through it can never clobber the next row.
func (f Flat) Row(i int) []float64 {
	return f.Data[i*f.Dim : (i+1)*f.Dim : (i+1)*f.Dim]
}

// Rows materializes the [][]float64 face of the set: one new slice of
// headers whose rows alias the flat buffer. Callers that mutate through
// the rows mutate the set.
func (f Flat) Rows() [][]float64 {
	if f.Card == 0 {
		return nil
	}
	rows := make([][]float64, f.Card)
	for i := range rows {
		rows[i] = f.Row(i)
	}
	return rows
}

// Set wraps the flat buffer as a Set (rows alias the buffer).
func (f Flat) Set() Set { return Set{Vectors: f.Rows()} }

// Flat copies the set into the contiguous representation.
func (s Set) Flat() Flat { return FlatFromRows(s.Vectors) }

// Centroid computes the extended centroid C_{k,ω} (Definition 8) of the
// flat set, exactly like Set.Centroid: component sums accumulate in row
// order, so the result is bit-identical to the [][]float64 path.
func (f Flat) Centroid(k int, omega []float64) []float64 {
	d := f.Dim
	if d == 0 {
		d = len(omega)
	}
	return f.CentroidInto(make([]float64, d), k, omega)
}

// CentroidInto is Centroid writing into dst (len must be the centroid
// dimension); it performs no allocation and returns dst.
func (f Flat) CentroidInto(dst []float64, k int, omega []float64) []float64 {
	if f.Card > k {
		panic(fmt.Sprintf("vectorset: cardinality %d exceeds k = %d", f.Card, k))
	}
	d := f.Dim
	if d == 0 {
		d = len(omega)
	}
	if len(omega) != d || len(dst) != d {
		panic(fmt.Sprintf("vectorset: ω has dim %d, dst has dim %d, want %d", len(omega), len(dst), d))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < f.Card; i++ {
		row := f.Data[i*d : (i+1)*d]
		for j := range dst {
			dst[j] += row[j]
		}
	}
	pad := float64(k - f.Card)
	for j := range dst {
		dst[j] = (dst[j] + pad*omega[j]) / float64(k)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Flat codec: the same wire format as Set.WriteTo/ReadFrom (uint32
// cardinality, uint32 dimension, card·dim little-endian float64), but
// decoding into one caller-controlled buffer. This is the zero-steady-
// state-allocation fetch path of the filter index.

// EncodedSize returns the serialized byte size of the set.
func (f Flat) EncodedSize() int { return EncodedSize(f.Card, f.Dim) }

// AppendEncode appends the serialized set to buf and returns the
// extended buffer (allocation-free when buf has capacity).
func (f Flat) AppendEncode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Card))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Dim))
	for _, x := range f.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// FlatHeader parses the cardinality and dimension of a serialized set
// without decoding the body, applying ReadFrom's sanity bounds.
func FlatHeader(rec []byte) (card, dim int, err error) {
	if len(rec) < 8 {
		return 0, 0, fmt.Errorf("vectorset: record of %d bytes has no header", len(rec))
	}
	card = int(binary.LittleEndian.Uint32(rec[0:4]))
	dim = int(binary.LittleEndian.Uint32(rec[4:8]))
	const maxReasonable = 1 << 20
	if card < 0 || dim < 0 || card > maxReasonable || dim > maxReasonable ||
		card*dim > maxReasonable {
		return 0, 0, fmt.Errorf("vectorset: implausible header card=%d dim=%d", card, dim)
	}
	if len(rec) < 8+card*dim*8 {
		return 0, 0, fmt.Errorf("vectorset: record of %d bytes, want %d", len(rec), 8+card*dim*8)
	}
	return card, dim, nil
}

// DecodeFlatInto decodes a serialized set into dst, which must have
// room for card·dim values (obtain the shape with FlatHeader); it
// performs no allocation. The returned Flat aliases dst.
func DecodeFlatInto(dst []float64, rec []byte) (Flat, error) {
	card, dim, err := FlatHeader(rec)
	if err != nil {
		return Flat{}, err
	}
	n := card * dim
	if len(dst) < n {
		return Flat{}, fmt.Errorf("vectorset: decode buffer holds %d values, want %d", len(dst), n)
	}
	dst = dst[:n]
	body := rec[8 : 8+n*8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	return Flat{Data: dst, Card: card, Dim: dim}, nil
}
