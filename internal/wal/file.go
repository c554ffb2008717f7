package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"github.com/voxset/voxset/internal/atomicfile"
)

// FileOptions tune a file-backed log.
type FileOptions struct {
	// NoSync skips the fsync after each append batch. Throughput rises,
	// and a host crash can lose the records since the last sync — the
	// process-crash guarantee (torn-tail recovery) is unaffected.
	NoSync bool
}

// File is a durable log at a filesystem path. Opening recovers the
// existing log (truncating a torn tail to the last fully framed record)
// or creates a fresh one; appends go through AppendBatch, one
// write+fsync per batch. Append methods must be externally serialized
// (vsdb holds its writer mutex); Records and Seq are safe to read
// concurrently.
type File struct {
	path    string
	opt     FileOptions
	f       *os.File
	wr      *Writer
	records atomic.Int64
	seq     atomic.Uint64
	err     error
}

// OpenFile opens or creates the log at path and returns the file plus
// every record recovered from it. cfg supplies the database shape; for
// an existing log the shape must match the header (BaseSeq is taken
// from the file, not from cfg). A torn tail — the normal result of a
// crash mid-append — is truncated to the last fully framed record;
// corruption before the tail is an error.
func OpenFile(path string, cfg Config, opt FileOptions) (*File, []Record, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0):
		return createFile(path, cfg, opt)
	case err != nil:
		return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}

	rd, err := NewReader(bytes.NewReader(data))
	if errors.Is(err, ErrTorn) {
		// Torn inside the header: no record can have been appended, so
		// the log carries no state — recreate it.
		return createFile(path, cfg, opt)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	fcfg := rd.Config()
	if !fcfg.Matches(cfg) {
		return nil, nil, fmt.Errorf("wal: %s header (dim=%d maxCard=%d) does not match database (dim=%d maxCard=%d) or ω differs",
			path, fcfg.Dim, fcfg.MaxCard, cfg.Dim, cfg.MaxCard)
	}
	var recs []Record
	for {
		rec, nerr := rd.Next()
		if nerr == io.EOF {
			break
		}
		if errors.Is(nerr, ErrTorn) {
			if terr := truncateTo(path, rd.ValidBytes()); terr != nil {
				return nil, nil, terr
			}
			break
		}
		if nerr != nil {
			return nil, nil, fmt.Errorf("wal: %s: %w", path, nerr)
		}
		recs = append(recs, rec)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reopening %s: %w", path, err)
	}
	fl := &File{path: path, opt: opt, f: f, wr: resumeWriter(f, fcfg, rd.Seq())}
	fl.records.Store(int64(len(recs)))
	fl.seq.Store(rd.Seq())
	return fl, recs, nil
}

func createFile(path string, cfg Config, opt FileOptions) (*File, []Record, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", path, err)
	}
	wr, err := NewWriter(f, cfg)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if !opt.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: syncing %s: %w", path, err)
		}
	}
	fl := &File{path: path, opt: opt, f: f, wr: wr}
	fl.seq.Store(cfg.BaseSeq)
	return fl, nil, nil
}

func truncateTo(path string, n int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncating %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(n); err != nil {
		return fmt.Errorf("wal: truncating %s to %d bytes: %w", path, n, err)
	}
	return f.Sync()
}

// Config returns the header configuration (BaseSeq as stored on disk).
func (fl *File) Config() Config { return fl.wr.Config() }

// Path returns the log's filesystem path.
func (fl *File) Path() string { return fl.path }

// Records returns the number of records currently in the log.
func (fl *File) Records() int64 { return fl.records.Load() }

// Seq returns the sequence number of the last record in the log
// (the header BaseSeq when empty).
func (fl *File) Seq() uint64 { return fl.seq.Load() }

// Append logs one record durably and returns its sequence number.
func (fl *File) Append(rec Record) (uint64, error) {
	return fl.AppendBatch([]Record{rec})
}

// AppendBatch logs recs in one write and (unless NoSync) one fsync,
// returning the last assigned sequence number. On failure the error is
// sticky: the on-disk tail may be torn, and the owning database must
// not make the mutation visible.
func (fl *File) AppendBatch(recs []Record) (uint64, error) {
	if fl.err != nil {
		return 0, fl.err
	}
	seq, err := fl.wr.AppendBatch(recs)
	if err != nil {
		fl.err = err
		return 0, err
	}
	if !fl.opt.NoSync {
		if err := fl.f.Sync(); err != nil {
			fl.err = fmt.Errorf("wal: syncing %s: %w", fl.path, err)
			return 0, fl.err
		}
	}
	fl.records.Add(int64(len(recs)))
	fl.seq.Store(seq)
	return seq, nil
}

// Reset truncates the log against a checkpoint: a fresh header with
// BaseSeq=baseSeq replaces the log through atomicfile, so the swap is
// atomic and durable — a crash leaves either the old log or the new
// empty one. Reset also clears a sticky append error (the torn tail is
// discarded with the rest of the log).
func (fl *File) Reset(baseSeq uint64) error {
	cfg := fl.wr.Config()
	cfg.BaseSeq = baseSeq
	f, err := atomicfile.Create(fl.path)
	if err != nil {
		return fmt.Errorf("wal: creating reset log for %s: %w", fl.path, err)
	}
	wr, err := NewWriter(f, cfg)
	if err != nil {
		f.Abort()
		return fmt.Errorf("wal: writing reset log for %s: %w", fl.path, err)
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("wal: installing reset log: %w", err)
	}
	nf, err := os.OpenFile(fl.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening %s: %w", fl.path, err)
	}
	fl.f.Close()
	fl.f = nf
	wr.w = nf
	fl.wr = wr
	fl.err = nil
	fl.records.Store(0)
	fl.seq.Store(baseSeq)
	return nil
}

// Close syncs (unless NoSync) and closes the log file.
func (fl *File) Close() error {
	if fl.f == nil {
		return nil
	}
	var err error
	if !fl.opt.NoSync && fl.err == nil {
		err = fl.f.Sync()
	}
	if cerr := fl.f.Close(); err == nil {
		err = cerr
	}
	fl.f = nil
	return err
}

// ---------------------------------------------------------------------------
// Crash injection

// ErrInjected is returned by FailAfterWriter once its byte budget is
// exhausted — the test double for a process crash mid-append.
var ErrInjected = errors.New("wal: injected write failure")

// FailAfterWriter passes writes through to W until Remaining bytes have
// been written, then fails — possibly mid-write, leaving a torn frame,
// exactly like a crash between write and completion. Crash-recovery
// tests wrap a log's writer with it and verify replay reaches the last
// fully framed record.
type FailAfterWriter struct {
	W         io.Writer
	Remaining int64
}

func (fw *FailAfterWriter) Write(p []byte) (int, error) {
	if fw.Remaining <= 0 {
		return 0, ErrInjected
	}
	if int64(len(p)) <= fw.Remaining {
		n, err := fw.W.Write(p)
		fw.Remaining -= int64(n)
		return n, err
	}
	n, err := fw.W.Write(p[:fw.Remaining])
	fw.Remaining -= int64(n)
	if err == nil {
		err = ErrInjected
	}
	return n, err
}
