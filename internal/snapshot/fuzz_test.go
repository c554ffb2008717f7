package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// fuzzSeed returns the encoded bytes of a small valid version-1 snapshot
// used to seed the fuzzer (mutations of valid streams explore the deep
// decoder states that pure garbage never reaches).
func fuzzSeed(withCentroids bool) []byte {
	db := &v1DB{
		Dim: 2, MaxCard: 3,
		Omega: []float64{0.5, -1},
		IDs:   []uint64{7, 42},
		Sets: [][][]float64{
			{{1, 2}, {3, 4}},
			{{-1, 0.25}},
		},
	}
	if withCentroids {
		db.Centroids = [][]float64{
			{(1 + 3 + 0.5) / 3, (2 + 4 - 1) / 3},
			{(-1 + 2*0.5) / 3, (0.25 - 2) / 3},
		}
	}
	var buf bytes.Buffer
	if err := encodeV1(&buf, db); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// addSeedVariants seeds f with seed, its first half, and copies with one
// byte flipped at each of offs (negative offsets count from the end).
func addSeedVariants(f *testing.F, seed []byte, offs ...int) {
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for _, off := range offs {
		if off < 0 {
			off += len(seed)
		}
		flip := append([]byte(nil), seed...)
		flip[off] ^= 0x10
		f.Add(flip)
	}
}

// addLegacyFixtures seeds f with both legacy-sketch fixtures (see
// compat_test.go) and their variants: each fuzz target sees the other
// version's file too, which its reader must reject as ErrCorrupt.
func addLegacyFixtures(f *testing.F) {
	for _, name := range []string{legacyTailFixture, legacyChunkFixture} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		addSeedVariants(f, raw, 20, len(raw)/3, -3)
	}
}

// FuzzSnapshotDecode drives the version-1 decoder with arbitrary bytes:
// it must never panic, corrupt input must always yield an error wrapping
// ErrCorrupt, and anything it accepts must re-encode byte-identically
// (the decode → encode fixed point of the deterministic format).
func FuzzSnapshotDecode(f *testing.F) {
	for _, withC := range []bool{false, true} {
		seed := fuzzSeed(withC)
		addSeedVariants(f, seed, len(seed)/3)
	}
	addLegacyFixtures(f)
	f.Add([]byte{})
	f.Add([]byte("VXSNAP01"))
	f.Add([]byte("VXSNAP02 wrong version"))
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := decodeV1(data)
		if err != nil {
			if db != nil {
				t.Fatal("decode returned both a DB and an error")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := encodeV1(&buf, db); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("accepted snapshot does not re-encode to its own bytes")
		}
		// A flipped byte in an accepted stream must be rejected.
		mut := append([]byte(nil), buf.Bytes()...)
		mut[len(mut)/2] ^= 0x80
		if _, err := decodeV1(mut); err == nil {
			t.Fatal("mutated accepted snapshot still accepted")
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mutation error does not wrap ErrCorrupt: %v", err)
		}
	})
}

// pagedFuzzSeed writes a small paged snapshot on 512-byte pages and
// returns its bytes: twelve objects span five pages.
func pagedFuzzSeed(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "seed.vsnap")
	w, err := CreatePaged(path, PagedWriterOptions{Dim: 2, MaxCard: 3, Omega: []float64{0.5, -1}, Seq: 3, PageSize: 512})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		x := float64(i)
		set := vectorset.Flat{Data: []float64{x, -x, x / 2, 1, 0.25, x * x}, Card: 3, Dim: 2}
		if err := w.Append(uint64(10+i), set); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzPagedOpen drives the version-2 reader with arbitrary file
// contents: OpenPaged and Verify never panic and every error they return
// wraps ErrCorrupt; once Verify has passed, every accessor a server uses —
// At, IDs, CentroidColumn — is panic-free.
func FuzzPagedOpen(f *testing.F) {
	addSeedVariants(f, pagedFuzzSeed(f), 20, 600, -3)
	addLegacyFixtures(f)
	f.Add([]byte{})
	f.Add([]byte("VXSNAP02"))
	f.Add([]byte("VXSNAP01 wrong version"))

	// Inputs run one at a time per process, so one file serves them all.
	path := filepath.Join(f.TempDir(), "fuzz.vsnap")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenPaged(path, PagedReaderOptions{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenPaged rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		defer r.Close()
		if err := r.Verify(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Verify error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if len(r.IDs()) != r.Len() || len(r.CentroidColumn()) != r.Len()*r.Dim() {
			t.Fatalf("verified file: %d ids, %d centroid values for %d objects",
				len(r.IDs()), len(r.CentroidColumn()), r.Len())
		}
		for i := 0; i < r.Len(); i++ {
			if s := r.At(i); s.Card < 1 || s.Card > r.MaxCard() || len(s.Data) != s.Card*s.Dim {
				t.Fatalf("verified file: object %d has card %d and %d floats", i, s.Card, len(s.Data))
			}
		}
	})
}
