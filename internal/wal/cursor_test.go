package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// These tests pin ReadSuffix, the cursor read the replication paths use:
// the records of a log beyond a given sequence number, read through the
// one Reader.

// writeLog writes recs to a fresh log at path.
func writeLog(t *testing.T, path string, recs []Record) {
	t.Helper()
	f, _, err := OpenFile(path, testConfig(), FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorAfterSeqSkips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	writeLog(t, path, testRecords())

	cfg, got, err := ReadSuffix(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Matches(testConfig()) {
		t.Fatalf("header %+v, want %+v", cfg, testConfig())
	}
	if len(got) == 0 || got[0].Seq != 3 {
		t.Fatalf("suffix after seq 2 starts at %v, want seq 3", got)
	}
	if len(got) != len(testRecords())-2 {
		t.Fatalf("suffix holds %d records, want %d", len(got), len(testRecords())-2)
	}
	if _, all, err := ReadSuffix(path, 0); err != nil || len(all) != len(testRecords()) {
		t.Fatalf("suffix after seq 0: %d records, %v; want all %d", len(all), err, len(testRecords()))
	}
}

// A torn final frame — an append in progress, or a crash — ends the read
// like a clean end of log; once the frame is complete, it is read.
func TestCursorTornTailIsEOFUntilComplete(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.wal")
	writeLog(t, path, testRecords()[:2])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.wal")
	if err := os.WriteFile(torn, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadSuffix(torn, 0)
	if err != nil {
		t.Fatalf("torn tail: %v, want the intact prefix", err)
	}
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("torn tail yielded %v, want seq 1 only", got)
	}
	if err := os.WriteFile(torn, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, got, err := ReadSuffix(torn, 1); err != nil || len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("completed tail yielded %v, %v; want seq 2", got, err)
	}
}

func TestCursorCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.wal")
	writeLog(t, path, testRecords()[:2])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0x80 // damage inside the (complete) final frame
	bad := filepath.Join(dir, "bad.wal")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage is an error even past the records the caller skips.
	for _, after := range []uint64{0, 1, 2} {
		if _, _, err := ReadSuffix(bad, after); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("after %d: damaged complete frame: err = %v, want ErrCorrupt", after, err)
		}
	}
}

func TestCursorMissingFile(t *testing.T) {
	_, _, err := ReadSuffix(filepath.Join(t.TempDir(), "absent.wal"), 0)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadSuffix on a missing file: err = %v, want os.ErrNotExist", err)
	}
}
