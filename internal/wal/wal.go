// Package wal implements the write-ahead log that makes vsdb mutations
// durable (DESIGN.md §8): every Insert/Delete is framed, checksummed and
// written to the log before it becomes visible to queries, so a crash
// loses at most the in-flight record. The framing is the chunk
// discipline of the legacy VXSNAP01 snapshot stream applied to a log:
//
//	magic   "VXWAL001" (8 bytes; trailing digits are the version)
//	header  one "CFG " frame: dim, max cardinality k, base sequence
//	        number, ω — the database configuration the log belongs to
//	records a sequence of "INS " / "DEL " frames
//
// where every frame is
//
//	tag     4 bytes ASCII
//	length  uint32 LE — payload byte count
//	payload
//	crc32   uint32 LE — IEEE CRC of tag‖length‖payload
//
// Records carry no explicit sequence number on the wire: the i-th record
// (1-based) has sequence BaseSeq+i by construction, so a log can only
// ever describe a contiguous suffix of the database's mutation history.
// Replaying onto a snapshot that persists its own sequence number (the
// paged snapshot header's epoch) skips records the snapshot already
// contains, which is what makes the checkpoint crash-recovery matrix
// close: every interleaving of "snapshot renamed" × "log truncated"
// replays to the same state.
//
// Reader is the one decoder of a log. Recovery (OpenFile) and the
// replication paths (ReadSuffix) both read through it.
//
// Damage is never silent: a bit flip anywhere is caught by the owning
// frame's CRC (ErrCorrupt), and a log that ends mid-frame — the expected
// shape after a crash during an append — surfaces as ErrTorn, which
// wraps ErrCorrupt (so strict consumers reject it) but is distinguished
// by recovery, which truncates the torn tail and keeps every fully
// framed record.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Version is the log format version this package reads and writes.
const Version = 1

// magic identifies a version-1 log stream.
var magic = [8]byte{'V', 'X', 'W', 'A', 'L', '0', '0', '1'}

// Frame tags.
var (
	tagCFG = [4]byte{'C', 'F', 'G', ' '}
	tagINS = [4]byte{'I', 'N', 'S', ' '}
	tagDEL = [4]byte{'D', 'E', 'L', ' '}
)

// ErrCorrupt is wrapped by every decoding error caused by damaged or
// hostile input. errors.Is(err, ErrCorrupt) distinguishes data
// corruption from I/O failures of the underlying reader.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrTorn reports a log that ends in the middle of a frame — the normal
// shape after a crash mid-append. It wraps ErrCorrupt (a torn log is not
// a valid log), but recovery treats it specially: every record before
// the torn tail is intact and the tail can be truncated away.
var ErrTorn = fmt.Errorf("%w: torn tail", ErrCorrupt)

// Sanity bounds, matching the snapshot format's: they reject hostile
// headers before any large allocation.
const (
	maxFrame = 1 << 28 // 256 MiB
	maxDim   = 1 << 16
	maxCard  = 1 << 20
)

// Op is a mutation kind.
type Op uint8

const (
	// OpInsert stores a vector set under a fresh id.
	OpInsert Op = iota + 1
	// OpDelete removes a stored id.
	OpDelete
)

func (op Op) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("wal.Op(%d)", uint8(op))
}

// Config describes the database a log belongs to. Dim, MaxCard and Omega
// must match the owning vsdb configuration bit for bit; BaseSeq is the
// database mutation sequence number at the moment the log was created
// (or last truncated), so record i (1-based) has sequence BaseSeq+i.
type Config struct {
	Dim     int
	MaxCard int
	BaseSeq uint64
	Omega   []float64
}

func (c Config) validate() error {
	if c.Dim <= 0 || c.Dim > maxDim {
		return fmt.Errorf("wal: Dim %d out of range", c.Dim)
	}
	if c.MaxCard <= 0 || c.MaxCard > maxCard {
		return fmt.Errorf("wal: MaxCard %d out of range", c.MaxCard)
	}
	if len(c.Omega) != c.Dim {
		return fmt.Errorf("wal: ω has dim %d, want %d", len(c.Omega), c.Dim)
	}
	return nil
}

// Matches reports whether two configurations describe the same database
// shape (BaseSeq excluded — it moves with every truncation).
func (c Config) Matches(o Config) bool {
	if c.Dim != o.Dim || c.MaxCard != o.MaxCard || len(c.Omega) != len(o.Omega) {
		return false
	}
	for i := range c.Omega {
		if math.Float64bits(c.Omega[i]) != math.Float64bits(o.Omega[i]) {
			return false
		}
	}
	return true
}

// Record is one logged mutation. Seq is assigned by the log (writer on
// append, reader on replay); Set is nil for OpDelete.
type Record struct {
	Seq uint64
	Op  Op
	ID  uint64
	Set [][]float64
}

// ---------------------------------------------------------------------------
// Encoding

// appendFrame appends one tag‖length‖payload‖crc frame to buf.
func appendFrame(buf []byte, tag [4]byte, payload []byte) []byte {
	var hdr [8]byte
	copy(hdr[:4], tag[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// encodeHeader returns the magic plus the CFG frame.
func encodeHeader(cfg Config) []byte {
	payload := make([]byte, 0, 20+len(cfg.Omega)*8)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(cfg.Dim))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(cfg.MaxCard))
	payload = binary.LittleEndian.AppendUint64(payload, cfg.BaseSeq)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(cfg.Omega)))
	for _, x := range cfg.Omega {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(x))
	}
	return appendFrame(append([]byte(nil), magic[:]...), tagCFG, payload)
}

// encodeRecord returns rec's frame, validating it against cfg.
func encodeRecord(cfg Config, rec Record) ([]byte, error) {
	switch rec.Op {
	case OpInsert:
		if len(rec.Set) == 0 || len(rec.Set) > cfg.MaxCard {
			return nil, fmt.Errorf("wal: insert id %d cardinality %d (MaxCard %d)", rec.ID, len(rec.Set), cfg.MaxCard)
		}
		payload := make([]byte, 0, 12+len(rec.Set)*cfg.Dim*8)
		payload = binary.LittleEndian.AppendUint64(payload, rec.ID)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.Set)))
		for i, v := range rec.Set {
			if len(v) != cfg.Dim {
				return nil, fmt.Errorf("wal: insert id %d vector %d has dim %d, want %d", rec.ID, i, len(v), cfg.Dim)
			}
			for _, x := range v {
				payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(x))
			}
		}
		return appendFrame(nil, tagINS, payload), nil
	case OpDelete:
		var payload [8]byte
		binary.LittleEndian.PutUint64(payload[:], rec.ID)
		return appendFrame(nil, tagDEL, payload[:]), nil
	}
	return nil, fmt.Errorf("wal: unknown op %v", rec.Op)
}

// Writer appends framed records to an io.Writer. It is not safe for
// concurrent use; vsdb serializes all mutators. Errors are sticky: once
// an append fails the log tail may be torn, and appending anything after
// it would bury the tear mid-log where recovery cannot distinguish it
// from corruption.
type Writer struct {
	w   io.Writer
	cfg Config
	seq uint64
	err error
}

// NewWriter validates cfg and writes the magic + CFG header.
func NewWriter(w io.Writer, cfg Config) (*Writer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Omega = append([]float64(nil), cfg.Omega...)
	if _, err := w.Write(encodeHeader(cfg)); err != nil {
		return nil, fmt.Errorf("wal: writing header: %w", err)
	}
	return &Writer{w: w, cfg: cfg, seq: cfg.BaseSeq}, nil
}

// resumeWriter continues an already-written log (no header emitted).
func resumeWriter(w io.Writer, cfg Config, lastSeq uint64) *Writer {
	return &Writer{w: w, cfg: cfg, seq: lastSeq}
}

// Config returns the header configuration.
func (wr *Writer) Config() Config { return wr.cfg }

// Seq returns the sequence number of the last appended (or resumed-past)
// record; BaseSeq when the log is empty.
func (wr *Writer) Seq() uint64 { return wr.seq }

// Append frames and writes one record in a single Write call, returning
// its assigned sequence number. rec.Seq is ignored.
func (wr *Writer) Append(rec Record) (uint64, error) {
	seqs, err := wr.AppendBatch([]Record{rec})
	if err != nil {
		return 0, err
	}
	return seqs, nil
}

// AppendBatch frames recs and writes them in one Write call (one sync
// unit for file-backed logs), returning the sequence number of the last
// record. A batch is not crash-atomic: each record is its own frame, so
// recovery after a mid-batch tear keeps the fully framed prefix.
func (wr *Writer) AppendBatch(recs []Record) (uint64, error) {
	if wr.err != nil {
		return 0, wr.err
	}
	var buf []byte
	for _, rec := range recs {
		frame, err := encodeRecord(wr.cfg, rec)
		if err != nil {
			return 0, err // encoding error: nothing written, not sticky
		}
		buf = append(buf, frame...)
	}
	if len(buf) == 0 {
		return wr.seq, nil
	}
	if _, err := wr.w.Write(buf); err != nil {
		wr.err = fmt.Errorf("wal: append: %w", err)
		return 0, wr.err
	}
	wr.seq += uint64(len(recs))
	return wr.seq, nil
}

// ---------------------------------------------------------------------------
// Decoding

// Reader streams records out of a log. Next returns io.EOF at a clean
// end-of-log, ErrTorn when the stream ends mid-frame, and an error
// wrapping ErrCorrupt for any other damage.
type Reader struct {
	r     io.Reader
	cfg   Config
	seq   uint64
	read  int64
	valid int64 // bytes up to the end of the last fully verified frame
	err   error
}

// NewReader consumes and verifies the magic and CFG header.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{r: r}
	var m [8]byte
	if err := rd.readFull(m[:]); err != nil {
		return nil, rd.fail(err, "reading magic")
	}
	if m != magic {
		return nil, rd.corrupt("bad magic %q (want %q)", m[:], magic[:])
	}
	tag, payload, err := rd.readFrame()
	if err == io.EOF { // magic present but CFG frame missing: torn header
		rd.err = fmt.Errorf("%w (missing CFG frame)", ErrTorn)
		return nil, rd.err
	}
	if err != nil {
		return nil, err
	}
	if tag != tagCFG {
		return nil, rd.corrupt("first frame is %q, want CFG", tag[:])
	}
	if len(payload) < 20 {
		return nil, rd.corrupt("CFG payload %d bytes", len(payload))
	}
	cfg := Config{
		Dim:     int(binary.LittleEndian.Uint32(payload[0:4])),
		MaxCard: int(binary.LittleEndian.Uint32(payload[4:8])),
		BaseSeq: binary.LittleEndian.Uint64(payload[8:16]),
	}
	od := int(binary.LittleEndian.Uint32(payload[16:20]))
	if cfg.Dim <= 0 || cfg.Dim > maxDim || cfg.MaxCard <= 0 || cfg.MaxCard > maxCard || od != cfg.Dim {
		return nil, rd.corrupt("implausible CFG dim=%d maxCard=%d ωdim=%d", cfg.Dim, cfg.MaxCard, od)
	}
	if len(payload) != 20+cfg.Dim*8 {
		return nil, rd.corrupt("CFG payload %d bytes, want %d", len(payload), 20+cfg.Dim*8)
	}
	cfg.Omega = make([]float64, cfg.Dim)
	for i := range cfg.Omega {
		cfg.Omega[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[20+i*8:]))
	}
	rd.cfg = cfg
	rd.seq = cfg.BaseSeq
	rd.valid = rd.read
	return rd, nil
}

// Config returns the decoded header configuration.
func (rd *Reader) Config() Config { return rd.cfg }

// Seq returns the sequence number of the last record returned by Next
// (BaseSeq before the first).
func (rd *Reader) Seq() uint64 { return rd.seq }

// ValidBytes reports the byte offset just past the last fully verified
// frame — the truncation point recovery uses when Next reports ErrTorn.
func (rd *Reader) ValidBytes() int64 { return rd.valid }

// Next returns the next record with its sequence number assigned.
func (rd *Reader) Next() (Record, error) {
	if rd.err != nil {
		return Record{}, rd.err
	}
	tag, payload, err := rd.readFrame()
	if err != nil {
		return Record{}, err
	}
	rec, err := decodeRecordBody(rd.cfg, tag, payload)
	if err != nil {
		rd.err = err
		return Record{}, err
	}
	rd.seq++
	rec.Seq = rd.seq
	rd.valid = rd.read
	return rec, nil
}

// decodeRecordBody decodes one INS or DEL frame payload against cfg;
// Next assigns the sequence number. Errors wrap ErrCorrupt.
func decodeRecordBody(cfg Config, tag [4]byte, payload []byte) (Record, error) {
	switch tag {
	case tagINS:
		if len(payload) < 12 {
			return Record{}, fmt.Errorf("%w: INS payload %d bytes", ErrCorrupt, len(payload))
		}
		id := binary.LittleEndian.Uint64(payload[0:8])
		card := int(binary.LittleEndian.Uint32(payload[8:12]))
		if card <= 0 || card > cfg.MaxCard {
			return Record{}, fmt.Errorf("%w: insert id %d cardinality %d (MaxCard %d)", ErrCorrupt, id, card, cfg.MaxCard)
		}
		if len(payload) != 12+card*cfg.Dim*8 {
			return Record{}, fmt.Errorf("%w: INS payload %d bytes, want %d", ErrCorrupt, len(payload), 12+card*cfg.Dim*8)
		}
		set := make([][]float64, card)
		body := payload[12:]
		for i := range set {
			set[i] = make([]float64, cfg.Dim)
			for j := range set[i] {
				set[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(body[(i*cfg.Dim+j)*8:]))
			}
		}
		return Record{Op: OpInsert, ID: id, Set: set}, nil
	case tagDEL:
		if len(payload) != 8 {
			return Record{}, fmt.Errorf("%w: DEL payload %d bytes, want 8", ErrCorrupt, len(payload))
		}
		return Record{Op: OpDelete, ID: binary.LittleEndian.Uint64(payload[0:8])}, nil
	}
	return Record{}, fmt.Errorf("%w: unknown frame tag %q", ErrCorrupt, tag[:])
}

// readFrame consumes one frame and verifies its CRC. A clean EOF before
// any header byte returns io.EOF; an EOF anywhere inside the frame
// returns ErrTorn.
func (rd *Reader) readFrame() (tag [4]byte, payload []byte, err error) {
	var hdr [8]byte
	n, err := io.ReadFull(rd.r, hdr[:])
	rd.read += int64(n)
	if err == io.EOF && n == 0 {
		rd.err = io.EOF
		return tag, nil, io.EOF
	}
	if err != nil {
		return tag, nil, rd.fail(err, "frame header")
	}
	copy(tag[:], hdr[:4])
	length := binary.LittleEndian.Uint32(hdr[4:])
	if length > maxFrame {
		return tag, nil, rd.corrupt("frame %q length %d exceeds limit", tag[:], length)
	}
	payload = make([]byte, length)
	if err := rd.readFull(payload); err != nil {
		return tag, nil, rd.fail(err, "frame %q payload", tag[:])
	}
	var tail [4]byte
	if err := rd.readFull(tail[:]); err != nil {
		return tag, nil, rd.fail(err, "frame %q CRC", tag[:])
	}
	want := crc32.ChecksumIEEE(hdr[:])
	want = crc32.Update(want, crc32.IEEETable, payload)
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return tag, nil, rd.corrupt("frame %q CRC 0x%08x, want 0x%08x", tag[:], got, want)
	}
	return tag, payload, nil
}

func (rd *Reader) readFull(p []byte) error {
	n, err := io.ReadFull(rd.r, p)
	rd.read += int64(n)
	return err
}

// fail classifies a read failure: EOF inside a frame is a torn tail,
// anything else is passed through (I/O errors are not corruption).
func (rd *Reader) fail(err error, format string, args ...interface{}) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		rd.err = fmt.Errorf("%w (%s)", ErrTorn, fmt.Sprintf(format, args...))
	} else {
		rd.err = fmt.Errorf("wal: %s: %w", fmt.Sprintf(format, args...), err)
	}
	return rd.err
}

func (rd *Reader) corrupt(format string, args ...interface{}) error {
	rd.err = fmt.Errorf("%w: "+format, append([]interface{}{ErrCorrupt}, args...)...)
	return rd.err
}

// ReadSuffix reads the log at path through a Reader and returns its
// header and every fully framed record with a sequence number beyond
// after, in order. A torn tail ends the read like a clean end of log: it
// is where an append in progress, or a crash, left the file, and the
// log's owner truncates it when it next opens the log. Any other damage
// is an error wrapping ErrCorrupt; a missing file is os.ErrNotExist.
func ReadSuffix(path string, after uint64) (Config, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, nil, err
	}
	defer f.Close()
	rd, err := NewReader(bufio.NewReader(f))
	if err != nil {
		return Config{}, nil, err
	}
	var recs []Record
	for {
		rec, err := rd.Next()
		switch {
		case err == io.EOF || errors.Is(err, ErrTorn):
			return rd.Config(), recs, nil
		case err != nil:
			return Config{}, nil, err
		case rec.Seq > after:
			recs = append(recs, rec)
		}
	}
}
