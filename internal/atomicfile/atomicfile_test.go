package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// These tests pin the contract a caller can observe from a live process:
// the destination is replaced whole, and a failed write leaves the
// previous file intact with no temporary behind. That the fsyncs are
// ordered so a power loss cannot surface a renamed-but-empty file is not
// observable without an injectable filesystem that fails or powers off
// at each write, sync and rename (the ROADMAP item "Multi-file crash
// points"); until then it rests on Commit's code order.

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func assertNoTemp(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary %s.tmp left behind (stat err %v)", path, err)
	}
}

func TestWriteFileReplacesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, writeString("a much longer first version")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, writeString("short")); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "short" {
		t.Fatalf("destination holds %q, want %q", got, "short")
	}
	assertNoTemp(t, path)
}

func TestWriteFileFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, writeString("previous")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half of the new")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want the write's error", err)
	}
	if got := readFile(t, path); got != "previous" {
		t.Fatalf("destination holds %q after a failed write, want %q", got, "previous")
	}
	assertNoTemp(t, path)
}

// TestCreateWriteAtCommit: a streaming writer that patches its header
// last (WriteAt) sees its final bytes installed; Abort instead leaves the
// destination as it was.
func TestCreateWriteAtCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("....body")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("HEAD"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "HEADbody" {
		t.Fatalf("destination holds %q, want %q", got, "HEADbody")
	}

	f, err = Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("discarded"))
	f.Abort()
	if got := readFile(t, path); got != "HEADbody" {
		t.Fatalf("destination holds %q after Abort, want %q", got, "HEADbody")
	}
	assertNoTemp(t, path)
}

// TestCommitRenameFailureCleansUp: a commit that cannot install its file
// reports the error and leaves no temporary behind.
func TestCommitRenameFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("x"))
	// Make the rename fail: the destination is now a non-empty directory.
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err == nil {
		t.Fatal("Commit over a non-empty directory succeeded")
	}
	assertNoTemp(t, path)
}
