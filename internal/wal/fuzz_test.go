package wal

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// corpusSeeds returns the checked-in seed inputs for FuzzWALReplay:
// valid logs of each shape (empty, single insert, mixed ops, non-zero
// base sequence), a truncated log, a bit-flipped log, and some garbage.
// generate_corpus_test.go materializes these under testdata/fuzz.
func corpusSeeds(t testing.TB) [][]byte {
	t.Helper()
	cfg := testConfig()
	seeds := [][]byte{
		encodeLog(t, cfg, nil),
		encodeLog(t, cfg, []Record{{Op: OpInsert, ID: 1, Set: [][]float64{{1, 2, 3}}}}),
		encodeLog(t, cfg, testRecords()),
		encodeLog(t, Config{Dim: 1, MaxCard: 1, BaseSeq: 1 << 40, Omega: []float64{0}},
			[]Record{{Op: OpInsert, ID: math.MaxUint64, Set: [][]float64{{math.Inf(1)}}}}),
	}
	full := encodeLog(t, cfg, testRecords())
	seeds = append(seeds, full[:len(full)-7]) // torn tail
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x80
	seeds = append(seeds,
		flipped,
		[]byte("VXWAL001"),
		[]byte("not a log at all"),
		nil,
	)
	return seeds
}

// FuzzWALReplay is the Reader's safety contract: arbitrary bytes must
// never panic; any accepted log must re-encode byte-identically (no
// silently altered or shortened state); any rejected log must fail with
// an error wrapping ErrCorrupt — except genuine I/O errors, which a
// byte slice cannot produce.
func FuzzWALReplay(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, recs, err := replayBytes(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// Accepted: re-encoding the replayed state must reproduce the
		// input bit for bit — the decoder cannot have dropped, altered,
		// or invented records.
		var buf bytes.Buffer
		wr, err := NewWriter(&buf, cfg)
		if err != nil {
			t.Fatalf("re-encoding accepted config %+v: %v", cfg, err)
		}
		for _, rec := range recs {
			seq, err := wr.Append(rec)
			if err != nil {
				t.Fatalf("re-encoding accepted record %+v: %v", rec, err)
			}
			if seq != rec.Seq {
				t.Fatalf("sequence drift: replayed %d, re-encoded %d", rec.Seq, seq)
			}
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("decode → encode is not a fixed point: %d bytes in, %d out", len(data), buf.Len())
		}
	})
}
