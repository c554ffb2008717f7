// Package atomicfile replaces a file whole, durably: the new bytes go to
// a sibling temporary (path + ".tmp"), which is fsynced, renamed over the
// destination, and made to survive a host crash by an fsync of the
// directory. A crash at any point leaves either the previous contents or
// the new ones, never a mix, and never a renamed file whose data was not
// yet on disk. Every file the engine installs whole — a snapshot, the
// cluster manifest, a reset write-ahead log — goes through it.
package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is a pending replacement of its destination path. It is the open
// temporary, so Write and WriteAt go straight to it; end it with exactly
// one of Commit or Abort.
type File struct {
	*os.File
	path string
}

// Create starts a replacement of path by creating (or truncating) its
// sibling temporary. The destination is untouched until Commit.
func Create(path string) (*File, error) {
	f, err := os.OpenFile(path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{File: f, path: path}, nil
}

// Commit makes the written bytes the destination's contents: fsync the
// temporary, close it, rename it over the destination, fsync the
// directory. If any step before the rename fails, the temporary is
// removed and the destination keeps its previous contents.
func (f *File) Commit() error {
	tmp := f.Name()
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, f.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(f.path)
}

// Abort discards the replacement: the temporary is closed and removed,
// and the destination keeps its previous contents.
func (f *File) Abort() {
	f.Close()
	os.Remove(f.Name())
}

// WriteFile replaces path with the bytes write produces. A failing write
// aborts the replacement and returns its error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// syncDir fsyncs the directory containing path so a rename into it
// survives a host crash. Failure to open the directory is ignored (not
// all filesystems support it); a failed sync on an open directory is not.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return fmt.Errorf("syncing directory of %s: %w", path, err)
	}
	return nil
}
