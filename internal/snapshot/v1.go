package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/voxset/voxset/internal/vectorset"
)

// Version 1 — the legacy chunk stream, read only as ConvertFile's input.
// All integers are little-endian:
//
//	magic   "VXSNAP01" (8 bytes; the two trailing digits are the version)
//	chunks  a sequence of self-checking chunks:
//	          tag     4 bytes ASCII
//	          length  uint32 — payload byte count
//	          payload
//	          crc32   uint32 — IEEE CRC of tag‖length‖payload
//
// Chunk order is fixed: one "CFG " chunk (dim, max cardinality, ω), an
// optional "SEQ " chunk carrying the mutation epoch (present iff
// non-zero), one "OBJ " chunk per object in insertion order (id,
// cardinality, vectors), an optional "CTR " chunk holding every extended
// centroid, an optional "SKH " chunk holding the signatures of the
// since-removed approximate tier (DESIGN.md §12), and a final "END "
// chunk carrying the object count and a whole-stream CRC over every
// chunk byte after the magic. A flipped bit anywhere is caught either by
// the owning chunk's CRC or by the stream CRC; a truncated stream fails
// to reach "END ". The decoder verifies every chunk — CTR included,
// although version 2 recomputes centroids rather than adopting them. An
// SKH chunk is checked by its CRCs and skipped: nothing reads its
// payload.

// magic1 identifies a version-1 snapshot stream.
var magic1 = [8]byte{'V', 'X', 'S', 'N', 'A', 'P', '0', '1'}

// Chunk tags.
var (
	tagCFG = [4]byte{'C', 'F', 'G', ' '}
	tagSEQ = [4]byte{'S', 'E', 'Q', ' '}
	tagOBJ = [4]byte{'O', 'B', 'J', ' '}
	tagCTR = [4]byte{'C', 'T', 'R', ' '}
	tagSKH = [4]byte{'S', 'K', 'H', ' '}
	tagEND = [4]byte{'E', 'N', 'D', ' '}
)

// maxChunk bounds a chunk's claimed length (256 MiB) before any
// allocation.
const maxChunk = 1 << 28

// v1Rank is a tag's position in the fixed chunk order (-1 for an unknown
// tag). Ranks never decrease along a stream and only OBJ repeats.
func v1Rank(tag [4]byte) int {
	switch tag {
	case tagCFG:
		return 0
	case tagSEQ:
		return 1
	case tagOBJ:
		return 2
	case tagCTR:
		return 3
	case tagSKH:
		return 4
	case tagEND:
		return 5
	}
	return -1
}

// v1Decoder reads a version-1 stream one object at a time.
type v1Decoder struct {
	r       io.Reader
	dim     int
	maxCard int
	omega   []float64

	crc     uint32 // running CRC of every chunk byte read so far
	rank    int    // v1Rank of the last chunk read
	objects uint64
	seq     uint64
	done    bool
	err     error

	// Chunk-framing scratch, reused across readChunk calls so the steady
	// state of a decode is one allocation per object (the flat vector
	// buffer). Every consumer of a chunk payload copies what it keeps.
	buf     []byte
	hdrBuf  [8]byte
	tailBuf [4]byte
}

// convertV1 is ConvertFile's version-1 half: objects stream from the
// decoder straight into the paged writer.
func convertV1(src, dst string, pageSize int) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	dec, err := newV1Decoder(bufio.NewReader(f))
	if err != nil {
		return err
	}
	w, err := CreatePaged(dst, PagedWriterOptions{
		Dim: dec.dim, MaxCard: dec.maxCard, Omega: dec.omega, PageSize: pageSize,
	})
	if err != nil {
		return err
	}
	defer w.Abort() // a no-op once Finish commits
	for {
		id, set, err := dec.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := w.Append(id, set); err != nil {
			return err
		}
	}
	// The epoch is final only once the stream is drained.
	w.SetSeq(dec.seq)
	return w.Finish()
}

// newV1Decoder consumes the magic and the configuration chunk.
func newV1Decoder(r io.Reader) (*v1Decoder, error) {
	d := &v1Decoder{r: r}
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, d.corrupt("reading magic: %v", err)
	}
	if m != magic1 {
		return nil, d.corrupt("bad magic %q (want %q)", m[:], magic1[:])
	}
	tag, payload, err := d.readChunk()
	if err != nil {
		return nil, err
	}
	if tag != tagCFG {
		return nil, d.corrupt("first chunk is %q, want CFG", tag[:])
	}
	if len(payload) < 12 {
		return nil, d.corrupt("CFG payload %d bytes", len(payload))
	}
	dim := int(binary.LittleEndian.Uint32(payload[0:4]))
	mc := int(binary.LittleEndian.Uint32(payload[4:8]))
	od := int(binary.LittleEndian.Uint32(payload[8:12]))
	if dim <= 0 || dim > maxDim || mc <= 0 || mc > maxCard || od != dim {
		return nil, d.corrupt("implausible CFG dim=%d maxCard=%d ωdim=%d", dim, mc, od)
	}
	if len(payload) != 12+dim*8 {
		return nil, d.corrupt("CFG payload %d bytes, want %d", len(payload), 12+dim*8)
	}
	d.dim, d.maxCard, d.omega = dim, mc, getFloats(payload[12:], dim)
	return d, nil
}

// next returns the next object in the contiguous vectorset.Flat layout:
// one allocation per object regardless of cardinality. After the last
// object it verifies the trailing sections and the END trailer (count and
// whole-stream CRC) and returns io.EOF; seq is final from then on. Any damage surfaces as an error wrapping ErrCorrupt.
func (d *v1Decoder) next() (uint64, vectorset.Flat, error) {
	var none vectorset.Flat
	if d.err != nil {
		return 0, none, d.err
	}
	if d.done {
		return 0, none, io.EOF
	}
	for {
		// The stream CRC covers every chunk byte before END, so it must be
		// latched before readChunk folds the END chunk in.
		streamCRC := d.crc
		tag, payload, err := d.readChunk()
		if err != nil {
			return 0, none, err
		}
		rank := v1Rank(tag)
		if rank < 0 {
			tg := tag
			return 0, none, d.corrupt("unknown chunk tag %q", tg[:])
		}
		if rank < d.rank || (rank == d.rank && tag != tagOBJ) {
			tg := tag
			return 0, none, d.corrupt("misplaced or duplicate %q chunk", tg[:])
		}
		d.rank = rank
		switch tag {
		case tagSEQ:
			// A zero epoch is never encoded: its absence means zero.
			if len(payload) != 8 {
				return 0, none, d.corrupt("SEQ payload %d bytes, want 8", len(payload))
			}
			if d.seq = binary.LittleEndian.Uint64(payload); d.seq == 0 {
				return 0, none, d.corrupt("SEQ chunk with zero sequence")
			}
		case tagOBJ:
			id, set, err := d.parseObject(payload)
			if err != nil {
				return 0, none, err
			}
			d.objects++
			return id, set, nil
		case tagCTR:
			if err := d.checkCentroids(payload); err != nil {
				return 0, none, err
			}
		case tagSKH:
			// Skipped by its length: readChunk has checked its CRC and
			// folded it into the stream CRC.
		case tagEND:
			if err := d.parseEnd(payload, streamCRC); err != nil {
				return 0, none, err
			}
			d.done = true
			return 0, none, io.EOF
		}
	}
}

func (d *v1Decoder) parseObject(payload []byte) (uint64, vectorset.Flat, error) {
	var none vectorset.Flat
	if len(payload) < 12 {
		return 0, none, d.corrupt("OBJ payload %d bytes", len(payload))
	}
	id := binary.LittleEndian.Uint64(payload[0:8])
	card := int(binary.LittleEndian.Uint32(payload[8:12]))
	if card <= 0 || card > d.maxCard {
		return 0, none, d.corrupt("object %d cardinality %d (MaxCard %d)", id, card, d.maxCard)
	}
	if len(payload) != 12+card*d.dim*8 {
		return 0, none, d.corrupt("OBJ payload %d bytes, want %d", len(payload), 12+card*d.dim*8)
	}
	return id, vectorset.Flat{
		Data: getFloats(payload[12:], card*d.dim),
		Card: card,
		Dim:  d.dim,
	}, nil
}

// checkCentroids verifies the CTR chunk's shape against the object
// stream; the values themselves are not kept.
func (d *v1Decoder) checkCentroids(payload []byte) error {
	if len(payload) < 4 {
		return d.corrupt("CTR payload %d bytes", len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload[0:4]))
	if uint64(n) != d.objects {
		return d.corrupt("CTR count %d, want %d objects", n, d.objects)
	}
	if len(payload) != 4+n*d.dim*8 {
		return d.corrupt("CTR payload %d bytes, want %d", len(payload), 4+n*d.dim*8)
	}
	return nil
}

func (d *v1Decoder) parseEnd(payload []byte, streamCRC uint32) error {
	if len(payload) != 12 {
		return d.corrupt("END payload %d bytes, want 12", len(payload))
	}
	if count := binary.LittleEndian.Uint64(payload[0:8]); count != d.objects {
		return d.corrupt("END count %d, want %d objects", count, d.objects)
	}
	if got := binary.LittleEndian.Uint32(payload[8:12]); got != streamCRC {
		return d.corrupt("stream CRC 0x%08x, want 0x%08x", streamCRC, got)
	}
	return nil
}

// readChunk consumes one chunk, verifying its CRC and folding its bytes
// into the running stream CRC. The returned payload aliases decoder
// scratch: it is valid until the next readChunk call. (Error messages
// format branch-local copies of the framing arrays so the hot path
// keeps them off the heap.)
func (d *v1Decoder) readChunk() (tag [4]byte, payload []byte, err error) {
	if _, err := io.ReadFull(d.r, d.hdrBuf[:]); err != nil {
		return tag, nil, d.corrupt("truncated chunk header: %v", err)
	}
	copy(tag[:], d.hdrBuf[:4])
	n := binary.LittleEndian.Uint32(d.hdrBuf[4:])
	if n > maxChunk {
		tg := tag
		return tag, nil, d.corrupt("chunk %q length %d exceeds limit", tg[:], n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	payload = d.buf[:n]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		tg := tag
		return tag, nil, d.corrupt("truncated chunk %q payload: %v", tg[:], err)
	}
	if _, err := io.ReadFull(d.r, d.tailBuf[:]); err != nil {
		tg := tag
		return tag, nil, d.corrupt("truncated chunk %q CRC: %v", tg[:], err)
	}
	want := crc32.ChecksumIEEE(d.hdrBuf[:])
	want = crc32.Update(want, crc32.IEEETable, payload)
	if got := binary.LittleEndian.Uint32(d.tailBuf[:]); got != want {
		tg := tag
		return tag, nil, d.corrupt("chunk %q CRC 0x%08x, want 0x%08x", tg[:], got, want)
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.hdrBuf[:])
	d.crc = crc32.Update(d.crc, crc32.IEEETable, payload)
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.tailBuf[:])
	return tag, payload, nil
}

func (d *v1Decoder) corrupt(format string, args ...interface{}) error {
	d.err = fmt.Errorf("%w: "+format, append([]interface{}{ErrCorrupt}, args...)...)
	return d.err
}
