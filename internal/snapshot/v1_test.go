package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// v1DB is a whole version-1 snapshot: the configuration, every object in
// insertion order, and the optional sections. Absent sections (Seq 0,
// nil Centroids, nil SKH) are not encoded, so decode → encode is a fixed
// point.
type v1DB struct {
	Dim     int
	MaxCard int
	Omega   []float64
	Seq     uint64
	IDs     []uint64
	Sets    [][][]float64
	// Centroids[i] is the extended centroid of Sets[i].
	Centroids [][]float64
	// SKH is the opaque payload of a legacy sketch chunk, which the
	// decoder skips.
	SKH []byte
}

// crcWriter tracks the running whole-stream CRC of everything written
// after the magic.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

// writeChunk emits one tag‖length‖payload‖crc chunk.
func writeChunk(w io.Writer, tag [4]byte, payload []byte) error {
	var hdr [8]byte
	copy(hdr[:4], tag[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(tail[:])
	return err
}

// encodeV1 writes db as a version-1 snapshot — the fixture writer for the
// legacy decoder. The encoding is a pure function of db's contents.
func encodeV1(w io.Writer, db *v1DB) error {
	if db.Dim <= 0 || db.Dim > maxDim {
		return fmt.Errorf("snapshot: Dim %d out of range", db.Dim)
	}
	if db.MaxCard <= 0 || db.MaxCard > maxCard {
		return fmt.Errorf("snapshot: MaxCard %d out of range", db.MaxCard)
	}
	if len(db.Omega) != db.Dim {
		return fmt.Errorf("snapshot: ω has dim %d, want %d", len(db.Omega), db.Dim)
	}
	if len(db.IDs) != len(db.Sets) {
		return fmt.Errorf("snapshot: %d ids but %d sets", len(db.IDs), len(db.Sets))
	}
	if db.Centroids != nil && len(db.Centroids) != len(db.Sets) {
		return fmt.Errorf("snapshot: %d centroids but %d sets", len(db.Centroids), len(db.Sets))
	}
	if _, err := w.Write(magic1[:]); err != nil {
		return err
	}
	cw := &crcWriter{w: w}

	cfg := make([]byte, 0, 12+db.Dim*8)
	cfg = binary.LittleEndian.AppendUint32(cfg, uint32(db.Dim))
	cfg = binary.LittleEndian.AppendUint32(cfg, uint32(db.MaxCard))
	cfg = binary.LittleEndian.AppendUint32(cfg, uint32(len(db.Omega)))
	cfg = putFloats(cfg, db.Omega)
	if err := writeChunk(cw, tagCFG, cfg); err != nil {
		return err
	}
	if db.Seq != 0 {
		var seq [8]byte
		binary.LittleEndian.PutUint64(seq[:], db.Seq)
		if err := writeChunk(cw, tagSEQ, seq[:]); err != nil {
			return err
		}
	}
	var obj []byte
	for i, set := range db.Sets {
		if len(set) == 0 || len(set) > db.MaxCard {
			return fmt.Errorf("snapshot: set %d has cardinality %d (MaxCard %d)", i, len(set), db.MaxCard)
		}
		obj = obj[:0]
		obj = binary.LittleEndian.AppendUint64(obj, db.IDs[i])
		obj = binary.LittleEndian.AppendUint32(obj, uint32(len(set)))
		for _, v := range set {
			if len(v) != db.Dim {
				return fmt.Errorf("snapshot: set %d has a vector of dim %d, want %d", i, len(v), db.Dim)
			}
			obj = putFloats(obj, v)
		}
		if err := writeChunk(cw, tagOBJ, obj); err != nil {
			return err
		}
	}
	if db.Centroids != nil {
		ctr := make([]byte, 0, 4+len(db.Centroids)*db.Dim*8)
		ctr = binary.LittleEndian.AppendUint32(ctr, uint32(len(db.Centroids)))
		for i, c := range db.Centroids {
			if len(c) != db.Dim {
				return fmt.Errorf("snapshot: centroid %d has dim %d, want %d", i, len(c), db.Dim)
			}
			ctr = putFloats(ctr, c)
		}
		if err := writeChunk(cw, tagCTR, ctr); err != nil {
			return err
		}
	}
	if db.SKH != nil {
		if err := writeChunk(cw, tagSKH, db.SKH); err != nil {
			return err
		}
	}
	end := make([]byte, 0, 12)
	end = binary.LittleEndian.AppendUint64(end, uint64(len(db.Sets)))
	end = binary.LittleEndian.AppendUint32(end, cw.crc)
	return writeChunk(cw, tagEND, end)
}

// decodeV1 decodes a whole version-1 stream through the legacy decoder.
// The decoder verifies the CTR and SKH chunks without keeping them, so
// they are read back from raw, whose chunks up to END are intact once the
// decoder has accepted it.
func decodeV1(raw []byte) (*v1DB, error) {
	d, err := newV1Decoder(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	db := &v1DB{Dim: d.dim, MaxCard: d.maxCard, Omega: d.omega}
	for {
		id, set, err := d.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		db.IDs = append(db.IDs, id)
		db.Sets = append(db.Sets, set.Rows())
	}
	db.Seq = d.seq
	for off := len(magic1); ; {
		tag := [4]byte(raw[off : off+4])
		n := int(binary.LittleEndian.Uint32(raw[off+4:]))
		if tag == tagEND {
			return db, nil
		}
		body := raw[off+8 : off+8+n]
		switch tag {
		case tagCTR:
			db.Centroids = make([][]float64, len(db.IDs))
			for i := range db.Centroids {
				db.Centroids[i] = getFloats(body[4+i*db.Dim*8:], db.Dim)
			}
		case tagSKH:
			db.SKH = append([]byte{}, body...)
		}
		off += 12 + n
	}
}

// testDB builds a small deterministic snapshot payload.
func testDB(seed int64, n, dim, maxCard int, withCentroids bool) *v1DB {
	rng := rand.New(rand.NewSource(seed))
	db := &v1DB{Dim: dim, MaxCard: maxCard, Omega: make([]float64, dim)}
	for i := range db.Omega {
		db.Omega[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		card := 1 + rng.Intn(maxCard)
		set := make([][]float64, card)
		for j := range set {
			set[j] = make([]float64, dim)
			for k := range set[j] {
				set[j][k] = rng.NormFloat64()
			}
		}
		db.IDs = append(db.IDs, uint64(i*3+1))
		db.Sets = append(db.Sets, set)
	}
	if withCentroids {
		for _, set := range db.Sets {
			c := make([]float64, dim)
			for _, v := range set {
				for k := range c {
					c[k] += v[k]
				}
			}
			pad := float64(maxCard - len(set))
			for k := range c {
				c[k] = (c[k] + pad*db.Omega[k]) / float64(maxCard)
			}
			db.Centroids = append(db.Centroids, c)
		}
	}
	return db
}

func encode(t testing.TB, db *v1DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeV1(&buf, db); err != nil {
		t.Fatalf("encodeV1: %v", err)
	}
	return buf.Bytes()
}

func equalDB(a, b *v1DB) bool {
	if a.Dim != b.Dim || a.MaxCard != b.MaxCard || len(a.IDs) != len(b.IDs) {
		return false
	}
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq(a.Omega, b.Omega) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || len(a.Sets[i]) != len(b.Sets[i]) {
			return false
		}
		for j := range a.Sets[i] {
			if !eq(a.Sets[i][j], b.Sets[i][j]) {
				return false
			}
		}
	}
	if (a.SKH == nil) != (b.SKH == nil) || !bytes.Equal(a.SKH, b.SKH) {
		return false
	}
	if (a.Centroids == nil) != (b.Centroids == nil) || len(a.Centroids) != len(b.Centroids) {
		return false
	}
	for i := range a.Centroids {
		if !eq(a.Centroids[i], b.Centroids[i]) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	for _, withC := range []bool{false, true} {
		db := testDB(7, 23, 6, 5, withC)
		back, err := decodeV1(encode(t, db))
		if err != nil {
			t.Fatalf("decode (withCentroids=%v): %v", withC, err)
		}
		if !equalDB(db, back) {
			t.Fatalf("round trip lost data (withCentroids=%v)", withC)
		}
	}
}

func TestEmptyRoundTrip(t *testing.T) {
	db := &v1DB{Dim: 3, MaxCard: 4, Omega: []float64{0, 0, 0}}
	back, err := decodeV1(encode(t, db))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.IDs) != 0 || back.Dim != 3 || back.MaxCard != 4 {
		t.Fatalf("empty round trip: %+v", back)
	}
}

// Encoding is deterministic: the same database yields identical bytes,
// and a decode → re-encode round trip is a fixed point.
func TestEncodeDeterministic(t *testing.T) {
	db := testDB(11, 17, 4, 6, true)
	db.Seq = 9
	a, b := encode(t, db), encode(t, db)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same DB differ")
	}
	back, err := decodeV1(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, encode(t, back)) {
		t.Fatal("decode → encode is not a fixed point")
	}
}

// Every single flipped byte anywhere in the stream must be rejected:
// chunk CRCs cover tag, length and payload; the END trailer covers the
// whole stream; the magic is compared directly.
func TestFlippedByteRejected(t *testing.T) {
	raw := encode(t, testDB(3, 5, 3, 4, true))
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		if _, err := decodeV1(mut); err == nil {
			t.Fatalf("flip at byte %d/%d accepted", i, len(raw))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: error does not wrap ErrCorrupt: %v", i, err)
		}
	}
}

// Every proper prefix must be rejected as truncated.
func TestTruncationRejected(t *testing.T) {
	raw := encode(t, testDB(5, 4, 3, 3, false))
	for n := 0; n < len(raw); n++ {
		if _, err := decodeV1(raw[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(raw))
		}
	}
}

func TestGarbageRejected(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("VXSNAP99definitely not a snapshot"),
		bytes.Repeat([]byte{0xff}, 256),
	} {
		if _, err := decodeV1(in); err == nil {
			t.Fatalf("garbage %q accepted", in)
		}
	}
}

// The streaming decoder hands out objects one at a time in insertion
// order, and reports the epoch once the END trailer verified.
func TestStreamingDecoder(t *testing.T) {
	db := testDB(19, 9, 5, 4, true)
	db.Seq = 41
	dec, err := newV1Decoder(bytes.NewReader(encode(t, db)))
	if err != nil {
		t.Fatal(err)
	}
	if dec.dim != db.Dim || dec.maxCard != db.MaxCard {
		t.Fatalf("header = dim %d maxCard %d", dec.dim, dec.maxCard)
	}
	for i := 0; ; i++ {
		id, set, err := dec.next()
		if err == io.EOF {
			if i != len(db.IDs) {
				t.Fatalf("streamed %d objects, want %d", i, len(db.IDs))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if id != db.IDs[i] || set.Card != len(db.Sets[i]) {
			t.Fatalf("object %d: id %d card %d, want %d/%d", i, id, set.Card, db.IDs[i], len(db.Sets[i]))
		}
	}
	if dec.seq != db.Seq {
		t.Fatalf("seq = %d, want %d", dec.seq, db.Seq)
	}
	// A drained decoder keeps returning io.EOF.
	if _, _, err := dec.next(); err != io.EOF {
		t.Fatalf("next after EOF: %v", err)
	}
}

func TestEncodeValidates(t *testing.T) {
	bad := []*v1DB{
		{Dim: 0, MaxCard: 1, Omega: nil},
		{Dim: 2, MaxCard: 0, Omega: []float64{0, 0}},
		{Dim: 2, MaxCard: 1, Omega: []float64{0}},
		{Dim: 2, MaxCard: 1, Omega: []float64{0, 0}, IDs: []uint64{1}, Sets: [][][]float64{{{1, 2}, {3, 4}}}}, // card > MaxCard
		{Dim: 2, MaxCard: 2, Omega: []float64{0, 0}, IDs: []uint64{1}, Sets: [][][]float64{{{1}}}},            // vector dim
		{Dim: 2, MaxCard: 2, Omega: []float64{0, 0}, IDs: []uint64{1, 2}, Sets: [][][]float64{{{1, 2}}}},      // ids/sets mismatch
	}
	for i, db := range bad {
		if err := encodeV1(io.Discard, db); err == nil {
			t.Errorf("bad DB %d accepted", i)
		}
	}
}

// buildEncoded returns an encoded snapshot of n card-5 objects.
func buildEncoded(t testing.TB, n int) []byte {
	t.Helper()
	const dim, card = 6, 5
	rng := rand.New(rand.NewSource(61))
	db := &v1DB{Dim: dim, MaxCard: card, Omega: make([]float64, dim)}
	for i := 0; i < n; i++ {
		set := make([][]float64, card)
		for j := range set {
			set[j] = make([]float64, dim)
			for k := range set[j] {
				set[j][k] = rng.NormFloat64()
			}
		}
		db.IDs = append(db.IDs, uint64(i))
		db.Sets = append(db.Sets, set)
	}
	return encode(t, db)
}

// TestNextFlatAllocsPerObject pins the streaming decode at one
// steady-state allocation per object — the flat vector buffer handed to
// the caller — independent of cardinality, so upgrading a large file
// costs one object of heap at a time.
func TestNextFlatAllocsPerObject(t *testing.T) {
	d, err := newV1Decoder(bytes.NewReader(buildEncoded(t, 300)))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(128, func() {
		if _, _, err := d.next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("next allocates %v per object, want ≤ 1", allocs)
	}
}

// BenchmarkDecodeStream reports whole-stream decode cost (allocations
// include the per-decoder fixed overhead).
func BenchmarkDecodeStream(b *testing.B) {
	raw := buildEncoded(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := newV1Decoder(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, _, err := d.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
