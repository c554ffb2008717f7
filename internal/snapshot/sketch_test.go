package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/voxset/voxset/internal/index/sketch"
	"github.com/voxset/voxset/internal/vectorset"
)

// sketchFixture computes the signature table of fx under p, the same way
// any producer would (one signature per object, insertion order).
func (fx *pagedFixture) sketchBlock(p sketch.Params) *sketch.Block {
	proj := sketch.NewProjector(p, fx.dim)
	sc := proj.NewScratch()
	wordsPer := p.Words()
	words := make([]uint64, len(fx.sets)*wordsPer)
	for i, s := range fx.sets {
		proj.SketchInto(words[i*wordsPer:(i+1)*wordsPer], s, sc)
	}
	return &sketch.Block{Params: p, Count: len(fx.sets), Words: words}
}

func (fx *pagedFixture) writeSketched(t *testing.T, path string, p sketch.Params) {
	t.Helper()
	w, err := CreatePaged(path, PagedWriterOptions{
		Dim: fx.dim, MaxCard: fx.maxCard, Omega: fx.omega, Seq: 5, Sketch: &p,
	})
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
}

// TestV1SketchChunkRoundTrip: a version-1 snapshot carrying an SKH
// section decodes back to the identical table and re-encodes to its own
// bytes (the fixed point the fuzzer pins).
func TestV1SketchChunkRoundTrip(t *testing.T) {
	db := testDB(11, 17, 6, 5, true)
	p := sketch.Params{Bits: 128, Active: 8, Seed: 9}
	proj := sketch.NewProjector(p, db.Dim)
	sc := proj.NewScratch()
	words := make([]uint64, len(db.Sets)*p.Words())
	for i, set := range db.Sets {
		proj.SketchInto(words[i*p.Words():(i+1)*p.Words()], vectorset.FlatFromRows(set), sc)
	}
	db.Sketches = &sketch.Block{Params: p, Count: len(db.Sets), Words: words}

	raw := encode(t, db)
	got, err := decodeV1(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDB(db, got) {
		t.Fatal("decoded DB differs")
	}
	if got.Sketches == nil || got.Sketches.Params != p ||
		!reflect.DeepEqual(got.Sketches.Words, words) {
		t.Fatalf("sketch section did not round-trip: %+v", got.Sketches)
	}
	if !bytes.Equal(encode(t, got), raw) {
		t.Fatal("re-encode of decoded snapshot differs")
	}

	// A snapshot without the section stays without it.
	db.Sketches = nil
	got, err = decodeV1(encode(t, db))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sketches != nil {
		t.Fatal("sketch section materialized out of nothing")
	}
}

// TestPagedSketchTailRoundTrip: a writer-computed sketch tail reads back
// identical to an independently computed table, and a file written
// without one opens with no table (the pre-tail layout compatibility).
func TestPagedSketchTailRoundTrip(t *testing.T) {
	fx := makeFixture(t, 73)
	p := sketch.Params{Bits: 256, Active: 16, Seed: 3}
	dir := t.TempDir()
	sketched := filepath.Join(dir, "sk.vsnap")
	plain := filepath.Join(dir, "plain.vsnap")
	fx.writeSketched(t, sketched, p)
	fx.write(t, plain, 5)

	r, err := OpenPaged(sketched, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.HasSketches() {
		t.Fatal("sketched file reports no sketch tail")
	}
	blk, err := r.Sketches()
	if err != nil {
		t.Fatal(err)
	}
	want := fx.sketchBlock(p)
	if blk.Params != p || blk.Count != len(fx.ids) || !reflect.DeepEqual(blk.Words, want.Words) {
		t.Fatal("persisted sketch table differs from a fresh computation")
	}
	// The tail must not disturb the page-covered regions.
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := r.CheckCentroids(); err != nil {
		t.Fatalf("CheckCentroids: %v", err)
	}

	r2, err := OpenPaged(plain, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.HasSketches() {
		t.Fatal("plain file reports a sketch tail")
	}
	if blk, err := r2.Sketches(); blk != nil || err != nil {
		t.Fatalf("plain file Sketches = (%v, %v), want (nil, nil)", blk, err)
	}
}

// TestPagedSketchTailCorruption: damage anywhere in the tail surfaces as
// ErrCorrupt — at open for the self-checksummed header and the file
// length, at first Sketches call for the words.
func TestPagedSketchTailCorruption(t *testing.T) {
	fx := makeFixture(t, 21)
	p := sketch.Params{Bits: 128, Active: 8, Seed: 1}
	dir := t.TempDir()
	path := filepath.Join(dir, "sk.vsnap")
	fx.writeSketched(t, path, p)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenPaged(path, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tailStart := int64(len(raw)) - sketchTailHeader - int64(len(fx.sets)*p.Words())*8
	r.Close()

	damage := func(name string, off int64) string {
		t.Helper()
		dst := filepath.Join(dir, name+".vsnap")
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		flipByte(t, dst, off)
		return dst
	}

	// Header damage (magic byte, params byte) fails the open.
	for name, off := range map[string]int64{
		"magic":  tailStart,
		"params": tailStart + 9,
	} {
		if _, err := OpenPaged(damage(name, off), PagedReaderOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s damage: open = %v, want ErrCorrupt", name, err)
		}
	}

	// Words damage opens fine and fails the lazy Sketches check.
	rw, err := OpenPaged(damage("words", tailStart+sketchTailHeader+3), PagedReaderOptions{})
	if err != nil {
		t.Fatalf("words damage must not fail the open: %v", err)
	}
	defer rw.Close()
	if blk, err := rw.Sketches(); !errors.Is(err, ErrCorrupt) || blk != nil {
		t.Fatalf("corrupt words: Sketches = (%v, %v), want ErrCorrupt", blk, err)
	}

	// A truncated tail cannot satisfy the header's file size.
	trunc := filepath.Join(dir, "trunc.vsnap")
	if err := os.WriteFile(trunc, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPaged(trunc, PagedReaderOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated tail: open = %v, want ErrCorrupt", err)
	}
}

// TestPagedEveryByteFlipRejected: on a sketched file with an odd page
// count — so four bytes of alignment padding sit between the CRC table
// and the tail, covered by no checksum — flipping any single byte fails
// OpenPaged or Verify with ErrCorrupt: Verify() == nil vouches for every
// byte of the file.
func TestPagedEveryByteFlipRejected(t *testing.T) {
	fx := makeFixture(t, 3)
	p := sketch.Params{Bits: 128, Active: 8, Seed: 1}
	dir := t.TempDir()
	path := filepath.Join(dir, "sk.vsnap")
	w, err := CreatePaged(path, PagedWriterOptions{
		Dim: fx.dim, MaxCard: fx.maxCard, Omega: fx.omega, PageSize: 512, Sketch: &p,
	})
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
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenPaged(path, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pages := len(r.crcs); pages%2 == 0 {
		t.Fatalf("fixture spans %d pages; the sweep needs an odd count", pages)
	}
	r.Close()

	mut := filepath.Join(dir, "mut.vsnap")
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
			t.Fatalf("flip at byte %d of %d: open + Verify = %v, want ErrCorrupt", off, len(raw), err)
		}
	}
}

// TestConvertCarriesSketches: ConvertFile preserves the signature table
// across both directions — a v1 SKH section becomes a paged tail, and a
// paged tail survives a v2 → v2 relayout — without recomputation.
func TestConvertCarriesSketches(t *testing.T) {
	fx := makeFixture(t, 37)
	p := sketch.Params{Bits: 192, Active: 12, Seed: 77}
	want := fx.sketchBlock(p)
	dir := t.TempDir()

	v1 := filepath.Join(dir, "v1.vsnap")
	db := &v1DB{Dim: fx.dim, MaxCard: fx.maxCard, Omega: fx.omega, Seq: 4, IDs: fx.ids, Sketches: want}
	for _, s := range fx.sets {
		db.Sets = append(db.Sets, s.Rows())
	}
	if err := os.WriteFile(v1, encode(t, db), 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(path string) {
		t.Helper()
		r, err := OpenPaged(path, PagedReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		blk, err := r.Sketches()
		if err != nil {
			t.Fatal(err)
		}
		if blk == nil || blk.Params != p || !reflect.DeepEqual(blk.Words, want.Words) {
			t.Fatalf("%s: sketch table did not carry through", path)
		}
	}
	v2 := filepath.Join(dir, "v2.vsnap")
	if err := ConvertFile(v1, v2, 0); err != nil {
		t.Fatal(err)
	}
	check(v2)
	v2b := filepath.Join(dir, "v2b.vsnap")
	if err := ConvertFile(v2, v2b, 2048); err != nil {
		t.Fatal(err)
	}
	check(v2b)
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
