package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// The legacy-sketch fixtures under testdata/ were written by the writers
// of the since-removed approximate tier (DESIGN.md §12), from
// compatObjects:
//
//   - legacyTailFixture: a VXSNAP02 file on 512-byte pages (eleven pages,
//     so four bytes of zero padding sit between the CRC table and the
//     tail) with a VXSKCH01 tail of 128-bit signatures.
//   - legacyChunkFixture: a VXSNAP01 stream with CTR and SEQ chunks and an
//     SKH chunk of the same signatures.
//
// Nothing reads the signatures any more. These tests pin that such files
// still open, answer as their tail-less twins do, and still fail loudly
// when damaged.
const (
	legacyTailFixture  = "sketch_tail.vsnap"
	legacyChunkFixture = "sketch_chunk.v1.vsnap"

	compatDim     = 6
	compatMaxCard = 5
	compatCount   = 22
	compatSeq     = 7
	compatWords   = 2 // 128-bit signatures
)

var compatOmega = []float64{0.5, -1, 0.25, 2, -0.75, 1}

// compatObjects returns the objects both fixtures hold, in insertion
// order.
func compatObjects() ([]uint64, []vectorset.Flat) {
	rng := rand.New(rand.NewSource(36))
	ids := make([]uint64, compatCount)
	sets := make([]vectorset.Flat, compatCount)
	for i := range sets {
		ids[i] = uint64(100 + 3*i)
		card := 1 + rng.Intn(compatMaxCard)
		data := make([]float64, card*compatDim)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		sets[i] = vectorset.Flat{Data: data, Card: card, Dim: compatDim}
	}
	return ids, sets
}

// writeCompat writes compatObjects as a tail-less paged file.
func writeCompat(t *testing.T, path string, pageSize int) {
	t.Helper()
	ids, sets := compatObjects()
	w, err := CreatePaged(path, PagedWriterOptions{
		Dim: compatDim, MaxCard: compatMaxCard, Omega: compatOmega, Seq: compatSeq, PageSize: pageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := w.Append(id, sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkCompatContent asserts that r holds exactly compatObjects.
func checkCompatContent(t *testing.T, r *PagedReader) {
	t.Helper()
	ids, sets := compatObjects()
	if r.Len() != len(ids) || r.Dim() != compatDim || r.MaxCard() != compatMaxCard || r.Seq() != compatSeq {
		t.Fatalf("geometry: len=%d dim=%d maxCard=%d seq=%d", r.Len(), r.Dim(), r.MaxCard(), r.Seq())
	}
	for i, w := range compatOmega {
		if r.Omega()[i] != w {
			t.Fatalf("ω[%d] = %v, want %v", i, r.Omega()[i], w)
		}
	}
	for i, id := range ids {
		got, want := r.At(i), sets[i]
		if r.ID(i) != id || got.Card != want.Card {
			t.Fatalf("object %d: id %d card %d, want id %d card %d", i, r.ID(i), got.Card, id, want.Card)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("object %d float %d differs", i, j)
			}
		}
		for j, c := range want.Centroid(compatMaxCard, compatOmega) {
			if r.Centroid(i)[j] != c {
				t.Fatalf("object %d centroid %d differs", i, j)
			}
		}
	}
}

// TestLegacySketchTailOpens: the tailed fixture opens, verifies, holds
// exactly the objects of its tail-less twin, and everything before its
// CRC table's end is the twin's bytes apart from the header page (whose
// file size field, and so header and page-0 CRCs, differ).
func TestLegacySketchTailOpens(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, legacyTailFixture)
	raw := readFixture(t, legacyTailFixture)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPaged(path, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if r.tailWords == nil {
		t.Fatal("fixture carries no sketch tail")
	}
	checkCompatContent(t, r)

	twin := filepath.Join(dir, "twin.vsnap")
	writeCompat(t, twin, 512)
	plain, err := os.ReadFile(twin)
	if err != nil {
		t.Fatal(err)
	}
	pages := len(plain) / 512
	if !bytes.Equal(raw[512:pages*512], plain[512:pages*512]) {
		t.Fatal("data pages differ from the tail-less twin")
	}
	if len(raw) != (len(plain)+7)&^7+sketchTailHeader+compatCount*compatWords*8 {
		t.Fatalf("fixture is %d bytes; twin %d + tail does not add up", len(raw), len(plain))
	}
}

// TestConvertDropsLegacySketches: ConvertFile upgrades the SKH-carrying
// v1 fixture and relays the tailed v2 fixture into exactly the file the
// writer produces from the same objects: the sketch section is checked
// and dropped.
func TestConvertDropsLegacySketches(t *testing.T) {
	dir := t.TempDir()
	want := filepath.Join(dir, "want.vsnap")
	writeCompat(t, want, 0)
	wantRaw, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{legacyChunkFixture, legacyTailFixture} {
		src := filepath.Join(dir, name)
		if err := os.WriteFile(src, readFixture(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "out-"+name)
		if err := ConvertFile(src, dst, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantRaw) {
			t.Fatalf("%s: converted file differs from a fresh write of the same objects", name)
		}
	}

	// The v1 fixture is the encoder's stream of the same objects plus the
	// SKH chunk: decode → encode keeps the chunk, byte for byte.
	raw := readFixture(t, legacyChunkFixture)
	db, err := decodeV1(raw)
	if err != nil {
		t.Fatal(err)
	}
	if db.SKH == nil || db.Seq != compatSeq || db.Centroids == nil {
		t.Fatal("v1 fixture lacks its SKH, SEQ or CTR chunk")
	}
	if !bytes.Equal(encode(t, db), raw) {
		t.Fatal("v1 fixture does not re-encode to its own bytes")
	}
}

// TestLegacySketchTailDamage: damage to the tail is ErrCorrupt — at open
// for its padding, magic, header and length, at Verify for its words —
// and a flipped word fails ConvertFile rather than being dropped
// unnoticed.
func TestLegacySketchTailDamage(t *testing.T) {
	raw := readFixture(t, legacyTailFixture)
	dir := t.TempDir()
	tailStart := len(raw) - sketchTailHeader - compatCount*compatWords*8
	write := func(name string, b []byte) string {
		t.Helper()
		p := filepath.Join(dir, name+".vsnap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	flipped := func(off int) []byte {
		b := append([]byte(nil), raw...)
		b[off] ^= 0x01
		return b
	}

	for name, b := range map[string][]byte{
		"padding":   flipped(tailStart - 1),
		"magic":     flipped(tailStart),
		"bits":      flipped(tailStart + 8),
		"headerCRC": flipped(tailStart + sketchTailHeader - 1),
		"truncated": raw[:len(raw)-5],
		"no words":  raw[:tailStart+sketchTailHeader],
		"short":     raw[:tailStart+3],
		"extended":  append(append([]byte(nil), raw...), make([]byte, 8)...),
	} {
		if _, err := OpenPaged(write(name, b), PagedReaderOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: open = %v, want ErrCorrupt", name, err)
		}
	}

	words := write("words", flipped(tailStart+sketchTailHeader+3))
	r, err := OpenPaged(words, PagedReaderOptions{})
	if err != nil {
		t.Fatalf("damaged words must not fail the open: %v", err)
	}
	checkCompatContent(t, r)
	if err := r.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged words: Verify = %v, want ErrCorrupt", err)
	}
	r.Close()
	if err := ConvertFile(words, filepath.Join(dir, "dst.vsnap"), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ConvertFile of damaged words = %v, want ErrCorrupt", err)
	}
}

// TestPagedEveryByteFlipRejected: flipping any single byte of a paged
// file fails OpenPaged or Verify with ErrCorrupt, so Verify() == nil
// vouches for every byte. It sweeps a tail-less file of an odd page count
// and the tailed fixture, whose four bytes of alignment padding before
// the tail are covered by no checksum.
func TestPagedEveryByteFlipRejected(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.vsnap")
	fx := makeFixture(t, 3)
	w, err := CreatePaged(plain, PagedWriterOptions{Dim: fx.dim, MaxCard: fx.maxCard, Omega: fx.omega, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range fx.ids {
		if err := w.Append(id, fx.sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	plainRaw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}

	mut := filepath.Join(dir, "mut.vsnap")
	for name, raw := range map[string][]byte{"tail-less": plainRaw, "tailed": readFixture(t, legacyTailFixture)} {
		if err := os.WriteFile(mut, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenPaged(mut, PagedReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pages := len(r.crcs); pages%2 == 0 {
			t.Fatalf("%s file spans %d pages; the sweep needs an odd count", name, pages)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: intact file fails Verify: %v", name, err)
		}
		r.Close()
		for off := range raw {
			b := append([]byte(nil), raw...)
			b[off] ^= 0x01
			if err := os.WriteFile(mut, b, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenPaged(mut, PagedReaderOptions{})
			if err == nil {
				err = r.Verify()
				r.Close()
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: flip at byte %d of %d: open + Verify = %v, want ErrCorrupt", name, off, len(raw), err)
			}
		}
	}
}

// TestConvertV2RejectsCorruptSource: converting a damaged paged file
// returns ErrCorrupt rather than panicking mid-copy (the eager Verify in
// the v2 path).
func TestConvertV2RejectsCorruptSource(t *testing.T) {
	fx := makeFixture(t, 29)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.vsnap")
	fx.write(t, src, 0)
	r, err := OpenPaged(src, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps := r.PageSize()
	r.Close()
	flipByte(t, src, int64(ps)+int64(ps)/2) // deep in the vector region

	if err := ConvertFile(src, filepath.Join(dir, "dst.vsnap"), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ConvertFile on corrupt source = %v, want ErrCorrupt", err)
	}
}
