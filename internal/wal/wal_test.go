package wal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testConfig() Config {
	return Config{Dim: 3, MaxCard: 4, BaseSeq: 0, Omega: []float64{0.5, 1.5, 2.5}}
}

// testRecords returns a deterministic mutation mix: inserts with varying
// cardinality (including interesting float values), deletes, and a
// delete+reinsert of the same id.
func testRecords() []Record {
	return []Record{
		{Op: OpInsert, ID: 7, Set: [][]float64{{1, 2, 3}}},
		{Op: OpInsert, ID: 9, Set: [][]float64{{0.25, -1, 8}, {4, 5, 6}, {7, 8, 9.5}}},
		{Op: OpDelete, ID: 7},
		{Op: OpInsert, ID: 12, Set: [][]float64{{math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0}, {1, 1, 1}}},
		{Op: OpInsert, ID: 7, Set: [][]float64{{-3, -2, -1}}},
		{Op: OpDelete, ID: 9},
	}
}

// encodeLog builds a complete in-memory log for the given records.
func encodeLog(t testing.TB, cfg Config, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	wr, err := NewWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := wr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// replayBytes strictly decodes a whole in-memory log through a Reader:
// any damage — a bit flip, a truncation, a torn tail — is an error
// wrapping ErrCorrupt.
func replayBytes(data []byte) (Config, []Record, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Config{}, nil, err
	}
	var recs []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return rd.Config(), recs, nil
		}
		if err != nil {
			return rd.Config(), nil, err
		}
		recs = append(recs, rec)
	}
}

func TestRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.BaseSeq = 41
	recs := testRecords()
	data := encodeLog(t, cfg, recs)

	got, gotRecs, err := replayBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Matches(cfg) || got.BaseSeq != cfg.BaseSeq {
		t.Fatalf("replayed config %+v, want %+v", got, cfg)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(gotRecs), len(recs))
	}
	for i, rec := range gotRecs {
		want := recs[i]
		want.Seq = cfg.BaseSeq + uint64(i) + 1
		if !reflect.DeepEqual(rec, want) {
			t.Errorf("record %d: got %+v, want %+v", i, rec, want)
		}
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Config{Dim: 3, MaxCard: 2, Omega: []float64{1}}); err == nil {
		t.Error("ω/dim mismatch accepted")
	}
	if _, err := NewWriter(&buf, Config{Dim: 0, MaxCard: 2, Omega: nil}); err == nil {
		t.Error("zero dim accepted")
	}
	wr, err := NewWriter(&buf, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wr.Append(Record{Op: OpInsert, ID: 1, Set: [][]float64{{1, 2}}}); err == nil {
		t.Error("wrong-dim vector accepted")
	}
	if _, err := wr.Append(Record{Op: OpInsert, ID: 1, Set: nil}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := wr.Append(Record{Op: OpInsert, ID: 1,
		Set: [][]float64{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}}); err == nil {
		t.Error("over-MaxCard set accepted")
	}
	// Encoding errors are not sticky: a valid append still works.
	if _, err := wr.Append(Record{Op: OpInsert, ID: 1, Set: [][]float64{{1, 2, 3}}}); err != nil {
		t.Errorf("valid append after encoding error: %v", err)
	}
}

// TestBitFlipSweep: flipping any single byte of a valid log must be
// detected — replay returns an error wrapping ErrCorrupt, never a
// silently altered record stream.
func TestBitFlipSweep(t *testing.T) {
	data := encodeLog(t, testConfig(), testRecords())
	for pos := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0x01
		_, _, err := replayBytes(corrupt)
		if err == nil {
			t.Fatalf("flipped byte at %d accepted", pos)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
}

// TestTruncationSweep: every prefix of a valid log either replays to a
// fully framed prefix of the record stream (cut exactly at a frame
// boundary) or reports a torn tail that wraps ErrCorrupt. ValidBytes
// always lands on the last intact frame boundary.
func TestTruncationSweep(t *testing.T) {
	cfg := testConfig()
	recs := testRecords()
	data := encodeLog(t, cfg, recs)

	// Record the frame boundaries: offset just past the header, then
	// past each record.
	boundaries := map[int]int{} // byte offset → number of records before it
	var buf bytes.Buffer
	wr, err := NewWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boundaries[buf.Len()] = 0
	for i, rec := range recs {
		if _, err := wr.Append(rec); err != nil {
			t.Fatal(err)
		}
		boundaries[buf.Len()] = i + 1
	}

	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		rd, err := NewReader(bytes.NewReader(prefix))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d: header error %v does not wrap ErrCorrupt", cut, err)
			}
			continue
		}
		n := 0
		var last error
		for {
			_, nerr := rd.Next()
			if nerr != nil {
				last = nerr
				break
			}
			n++
		}
		wantRecs, boundary := boundaries[cut]
		if boundary {
			if last != io.EOF {
				t.Fatalf("cut %d (boundary): got error %v, want io.EOF", cut, last)
			}
			if n != wantRecs {
				t.Fatalf("cut %d (boundary): replayed %d records, want %d", cut, n, wantRecs)
			}
		} else {
			if !errors.Is(last, ErrTorn) {
				t.Fatalf("cut %d (mid-frame): got error %v, want ErrTorn", cut, last)
			}
			if !errors.Is(last, ErrCorrupt) {
				t.Fatalf("cut %d: ErrTorn does not wrap ErrCorrupt", cut)
			}
			if vb := rd.ValidBytes(); boundaries[int(vb)] != n {
				t.Fatalf("cut %d: ValidBytes %d is not the boundary after %d records", cut, vb, n)
			}
		}
	}
}

func TestFileRoundTripAndRecovery(t *testing.T) {
	cfg := testConfig()
	path := filepath.Join(t.TempDir(), "test.wal")

	fl, recs, err := OpenFile(path, cfg, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := testRecords()
	for _, rec := range want[:3] {
		if _, err := fl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if seq, err := fl.AppendBatch(want[3:]); err != nil || seq != uint64(len(want)) {
		t.Fatalf("AppendBatch seq %d err %v, want %d nil", seq, err, len(want))
	}
	if fl.Records() != int64(len(want)) || fl.Seq() != uint64(len(want)) {
		t.Fatalf("Records/Seq = %d/%d, want %d/%d", fl.Records(), fl.Seq(), len(want), len(want))
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all records come back with correct sequence numbers.
	fl, recs, err = OpenFile(path, cfg, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if len(recs) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		w := want[i]
		w.Seq = uint64(i) + 1
		if !reflect.DeepEqual(rec, w) {
			t.Errorf("record %d: got %+v, want %+v", i, rec, w)
		}
	}
	if fl.Seq() != uint64(len(want)) {
		t.Fatalf("reopened Seq %d, want %d", fl.Seq(), len(want))
	}
}

// TestFileTornTailRecovery: chop a valid log at every byte offset, open
// it, and verify OpenFile recovers exactly the fully framed prefix and
// the log accepts new appends afterwards.
func TestFileTornTailRecovery(t *testing.T) {
	cfg := testConfig()
	want := testRecords()
	data := encodeLog(t, cfg, want)
	dir := t.TempDir()

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		fl, recs, err := OpenFile(path, cfg, FileOptions{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Every recovered record must be a prefix of the original stream.
		if len(recs) > len(want) {
			t.Fatalf("cut %d: recovered %d records from a %d-record log", cut, len(recs), len(want))
		}
		for i, rec := range recs {
			w := want[i]
			w.Seq = uint64(i) + 1
			if !reflect.DeepEqual(rec, w) {
				t.Fatalf("cut %d: record %d: got %+v, want %+v", cut, i, rec, w)
			}
		}
		// The log must be appendable after recovery…
		if _, err := fl.Append(Record{Op: OpDelete, ID: 999}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		// …and replay cleanly end to end.
		reopened, recs2, err := OpenFile(path, cfg, FileOptions{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: reopen after recovery: %v", cut, err)
		}
		if len(recs2) != len(recs)+1 {
			t.Fatalf("cut %d: reopen replayed %d records, want %d", cut, len(recs2), len(recs)+1)
		}
		reopened.Close()
		os.Remove(path)
	}
}

// TestFailAfterWriter is the crash-recovery satellite: a writer is
// killed mid-append at a random byte budget, and replay of what reached
// "disk" must recover every fully framed record and nothing else.
func TestFailAfterWriter(t *testing.T) {
	cfg := testConfig()
	recs := testRecords()
	full := encodeLog(t, cfg, recs)

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 64; trial++ {
		budget := int64(rng.Intn(len(full) + 1))
		var buf bytes.Buffer
		fw := &FailAfterWriter{W: &buf, Remaining: budget}

		var appended int
		wr, err := NewWriter(fw, cfg)
		if err == nil {
			for _, rec := range recs {
				if _, err = wr.Append(rec); err != nil {
					break
				}
				appended++
			}
			// The writer's error must be sticky once injected.
			if err != nil {
				if _, err2 := wr.Append(recs[0]); err2 == nil {
					t.Fatalf("budget %d: append succeeded after injected failure", budget)
				}
			}
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		}

		// What reached the buffer is a crash image: replaying it must
		// recover at least the records whose Append returned success…
		rd, rerr := NewReader(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			if appended != 0 {
				t.Fatalf("budget %d: %d appends acked but header unreadable: %v", budget, appended, rerr)
			}
			continue
		}
		n := 0
		for {
			if _, nerr := rd.Next(); nerr != nil {
				if nerr != io.EOF && !errors.Is(nerr, ErrTorn) {
					t.Fatalf("budget %d: replay error %v", budget, nerr)
				}
				break
			}
			n++
		}
		if n < appended {
			t.Fatalf("budget %d: %d appends acked but only %d replayed", budget, appended, n)
		}
		// …and every replayed record is byte-for-byte from the real stream.
		if prefix := buf.Bytes(); !bytes.Equal(prefix, full[:len(prefix)]) {
			t.Fatalf("budget %d: crash image diverges from the true log", budget)
		}
	}
}

func TestFileConfigMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.wal")
	fl, _, err := OpenFile(path, testConfig(), FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fl.Close()

	bad := testConfig()
	bad.Dim = 4
	bad.Omega = []float64{1, 2, 3, 4}
	if _, _, err := OpenFile(path, bad, FileOptions{NoSync: true}); err == nil {
		t.Error("dim mismatch accepted")
	}
	badOmega := testConfig()
	badOmega.Omega = []float64{9, 9, 9}
	if _, _, err := OpenFile(path, badOmega, FileOptions{NoSync: true}); err == nil {
		t.Error("ω mismatch accepted")
	}
	// BaseSeq is taken from the file, so a different caller BaseSeq is fine.
	shifted := testConfig()
	shifted.BaseSeq = 99
	fl2, _, err := OpenFile(path, shifted, FileOptions{NoSync: true})
	if err != nil {
		t.Fatalf("BaseSeq difference rejected: %v", err)
	}
	if fl2.Seq() != 0 {
		t.Errorf("file Seq %d, want 0 (from file header)", fl2.Seq())
	}
	fl2.Close()
}

func TestFileReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.wal")
	fl, _, err := OpenFile(path, testConfig(), FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords() {
		if _, err := fl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.Reset(6); err != nil {
		t.Fatal(err)
	}
	if fl.Records() != 0 || fl.Seq() != 6 {
		t.Fatalf("after Reset: Records=%d Seq=%d, want 0/6", fl.Records(), fl.Seq())
	}
	// The reset log accepts appends with the new base sequence…
	if seq, err := fl.Append(Record{Op: OpDelete, ID: 42}); err != nil || seq != 7 {
		t.Fatalf("append after reset: seq %d err %v, want 7 nil", seq, err)
	}
	fl.Close()
	// …and replays from the new base.
	fl, recs, err := OpenFile(path, testConfig(), FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if fl.Config().BaseSeq != 6 {
		t.Errorf("reset BaseSeq %d, want 6", fl.Config().BaseSeq)
	}
	if len(recs) != 1 || recs[0].Seq != 7 || recs[0].ID != 42 {
		t.Fatalf("replayed %+v, want one delete(42) at seq 7", recs)
	}
}
