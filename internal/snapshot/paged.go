package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"unsafe"

	"github.com/voxset/voxset/internal/atomicfile"
	"github.com/voxset/voxset/internal/mmapfile"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// Version 2 — the paged, mmap-servable snapshot layout (DESIGN.md §11),
// the one layout every writer produces.
//
// Opening the version-1 chunk stream meant decoding every object onto
// the heap, so cold-start cost and RSS both grew linearly with the
// database. Version 2 trades a little disk space (page padding) for a
// layout a server can map and serve in place:
//
//	page 0      header — magic "VXSNAP02", geometry (page size, dim, max
//	            cardinality, object count, epoch), the byte offset of
//	            every region, ω inline, and a header CRC.
//	vector      pages [1, …): the flat vector data of every object,
//	  region    concatenated in block order (vectorset.BlockOrder, which
//	            PagedWriter.Finish applies; a file from an older writer
//	            may hold any order, and is read as stored) — exactly the
//	            vectorset.Flat row-major layout, so a Flat can alias it.
//	offsets     starts[count+1] — cumulative float64 counts delimiting
//	  region    each object's rows — then ids[count], both uint64.
//	centroid    the extended centroid of every object (count·dim
//	  region    float64), aligned with ids; the served filter ranks this
//	            region in place as one column, without touching a single
//	            vector page.
//	CRC table   one IEEE CRC32 per page of everything above it.
//	sketch      optional trailer, written only by builds that carried
//	  tail      the since-removed approximate tier (DESIGN.md §12):
//	            8-aligned after the CRC table — magic "VXSKCH01", the
//	            sketch parameters, a CRC over the signature words, a CRC
//	            over the tail header itself, then one signature per
//	            object. No writer emits it and nothing reads the
//	            signatures; the reader still checks it (checkSketchTail)
//	            so that Verify() == nil keeps vouching for every byte of
//	            such a file, and ConvertFile drops it.
//
// Every region starts on a page boundary, so when the file is mapped the
// float64/uint64 views are 8-byte aligned and cost zero decode work. All
// integers and floats are little-endian; on a big-endian host the reader
// transparently falls back to copying decodes.
//
// Integrity is pay-as-you-go: the header and offsets are verified when
// the file is opened, but vector and centroid pages are verified lazily,
// on first touch, against the CRC table. First touch is also when the
// storage.Tracker is charged — one page access plus the page's bytes —
// so on the mmap path the §5.4 cost model counts the pages a workload
// actually faulted in, not a simulated full scan. A lazily detected
// corrupt page panics with an error wrapping ErrCorrupt (the snapshot
// was validated at rest; mid-serve damage is unrecoverable), while
// Verify offers an eager, error-returning check of every byte for
// opening untrusted files.

// magic2 identifies a version-2 paged snapshot file.
var magic2 = [8]byte{'V', 'X', 'S', 'N', 'A', 'P', '0', '2'}

// pagedHeaderFixed is the byte size of the fixed header fields before
// the inline ω vector.
const pagedHeaderFixed = 88

// sketchTailMagic identifies the legacy sketch trailer after the CRC
// table, and sketchTailHeader is its fixed header size: magic (8), bits
// u32, active u32, seed u64, count u64, words CRC u32, header CRC u32.
var sketchTailMagic = [8]byte{'V', 'X', 'S', 'K', 'C', 'H', '0', '1'}

const sketchTailHeader = 40

// maxSketchBits bounds a legacy tail's signature width, so the length it
// implies cannot overflow.
const maxSketchBits = 4096

// maxObjects bounds the object count a paged header may claim.
const maxObjects = 1 << 31

// hostLittleEndian reports whether the running machine stores integers
// little-endian; only then may the reader alias the mapping directly.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// SniffFile reports the snapshot format version of path (1 or 2) by its
// magic. Unrecognized leading bytes are reported as ErrCorrupt.
func SniffFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var m [8]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return 0, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	switch m {
	case magic1:
		return 1, nil
	case magic2:
		return 2, nil
	}
	return 0, fmt.Errorf("%w: unrecognized magic %q", ErrCorrupt, m[:])
}

// ---------------------------------------------------------------------------
// Writer

// PagedWriterOptions configures CreatePaged.
type PagedWriterOptions struct {
	Dim     int
	MaxCard int
	Omega   []float64
	// Seq is the mutation epoch recorded in the header (see also
	// PagedWriter.SetSeq, for producers that learn it mid-stream).
	Seq uint64
	// PageSize is the layout's page size (storage.DefaultPageSize if
	// zero). It must be a multiple of 8 and large enough to hold the
	// header with ω inline.
	PageSize int
}

// PagedWriter streams objects into a version-2 paged snapshot with
// bounded memory and stores them in block order (vectorset.BlockOrder),
// so a database opened from the file ranks its centroid region in place
// with small block boxes. Vector data goes to a scratch file beside the
// target as it is appended, and only the per-object bookkeeping —
// offsets, ids, centroids, page CRCs — is buffered until Finish, which
// orders the objects and copies their vectors into the target in that
// order (O(count·dim) memory, independent of the vector payload, which
// dominates any real database). Block order is canonical, so the bytes
// depend on the objects and the epoch, not on the order they were
// appended in. The file is written as an atomicfile replacement committed
// on Finish, so a crashed build never leaves a half-written snapshot
// behind; a failed Append or Finish, or Abort, removes every file the
// writer made.
type PagedWriter struct {
	path string
	opts PagedWriterOptions
	vec  *os.File         // the scratch file: vectors in append order
	vecW *bufio.Writer    // buffers vec
	f    *atomicfile.File // the target's temporary, from Finish on
	w    *writeCounter

	starts []uint64 // cumulative float64 counts in vec, len = count+1
	ids    []uint64
	cents  []float64 // count·dim, appended per object
	buf    []byte    // vector encode scratch, reused per object
	err    error
}

// writeCounter folds every written byte into per-page CRCs as it passes
// through, so Finish never re-reads the file to build the CRC table.
type writeCounter struct {
	w        io.Writer
	pageSize int
	off      int64
	crcs     []uint32 // completed pages; crcs[0] patched by Finish
	cur      uint32   // running CRC of the partially written page
	fill     int      // bytes of the current page written so far
}

func (wc *writeCounter) Write(p []byte) (int, error) {
	n, err := wc.w.Write(p)
	wc.off += int64(n)
	for b := p[:n]; len(b) > 0; {
		room := wc.pageSize - wc.fill
		if room > len(b) {
			room = len(b)
		}
		wc.cur = crc32.Update(wc.cur, crc32.IEEETable, b[:room])
		wc.fill += room
		b = b[room:]
		if wc.fill == wc.pageSize {
			wc.crcs = append(wc.crcs, wc.cur)
			wc.cur, wc.fill = 0, 0
		}
	}
	return n, err
}

// padToPage writes zeros up to the next page boundary.
func (wc *writeCounter) padToPage() error {
	if wc.fill == 0 {
		return nil
	}
	_, err := wc.Write(make([]byte, wc.pageSize-wc.fill))
	return err
}

// CreatePaged starts a version-2 paged snapshot at path. Objects are
// streamed in with Append and the file becomes visible atomically on
// Finish; Abort discards everything written so far.
func CreatePaged(path string, opts PagedWriterOptions) (*PagedWriter, error) {
	if opts.PageSize == 0 {
		opts.PageSize = storage.DefaultPageSize
	}
	if opts.PageSize < 512 || opts.PageSize%8 != 0 {
		return nil, fmt.Errorf("snapshot: page size %d (want a multiple of 8, ≥ 512)", opts.PageSize)
	}
	if opts.Dim <= 0 || opts.Dim > maxDim {
		return nil, fmt.Errorf("snapshot: Dim %d out of range", opts.Dim)
	}
	if opts.MaxCard <= 0 || opts.MaxCard > maxCard {
		return nil, fmt.Errorf("snapshot: MaxCard %d out of range", opts.MaxCard)
	}
	if len(opts.Omega) != opts.Dim {
		return nil, fmt.Errorf("snapshot: ω has dim %d, want %d", len(opts.Omega), opts.Dim)
	}
	if pagedHeaderFixed+opts.Dim*8+4 > opts.PageSize {
		return nil, fmt.Errorf("snapshot: page size %d too small for a dim-%d header", opts.PageSize, opts.Dim)
	}
	vec, err := os.OpenFile(path+".vec.tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &PagedWriter{
		path:   path,
		opts:   opts,
		vec:    vec,
		vecW:   bufio.NewWriterSize(vec, 1<<16),
		starts: []uint64{0},
	}, nil
}

// SetSeq records the mutation epoch to persist. Callers converting a
// version-1 stream learn the epoch only while decoding, so this may be
// called any time before Finish.
func (pw *PagedWriter) SetSeq(seq uint64) { pw.opts.Seq = seq }

// Append streams one object's vectors to the scratch file and buffers its
// offset, id, and extended centroid (computed here — the centroid is a
// deterministic function of the set, so recomputation is bit-identical
// to any previously persisted value).
func (pw *PagedWriter) Append(id uint64, set vectorset.Flat) error {
	if pw.err != nil {
		return pw.err
	}
	if set.Dim != pw.opts.Dim {
		return pw.fail(fmt.Errorf("snapshot: object %d has dim %d, want %d", id, set.Dim, pw.opts.Dim))
	}
	if set.Card <= 0 || set.Card > pw.opts.MaxCard {
		return pw.fail(fmt.Errorf("snapshot: object %d cardinality %d (MaxCard %d)", id, set.Card, pw.opts.MaxCard))
	}
	if len(set.Data) != set.Card*set.Dim {
		return pw.fail(fmt.Errorf("snapshot: object %d has %d floats, want %d", id, len(set.Data), set.Card*set.Dim))
	}
	if len(pw.ids) >= maxObjects {
		return pw.fail(fmt.Errorf("snapshot: object count exceeds %d", maxObjects))
	}
	pw.buf = putFloats(pw.buf[:0], set.Data)
	if _, err := pw.vecW.Write(pw.buf); err != nil {
		return pw.fail(err)
	}
	pw.starts = append(pw.starts, pw.starts[len(pw.starts)-1]+uint64(len(set.Data)))
	pw.ids = append(pw.ids, id)
	pw.cents = append(pw.cents, set.Centroid(pw.opts.MaxCard, pw.opts.Omega)...)
	return nil
}

// Finish orders the objects into blocks, writes the header, vector,
// offsets, centroid and CRC regions, commits the file into place and
// removes the scratch file. The writer is unusable afterwards.
func (pw *PagedWriter) Finish() error {
	if pw.err != nil {
		return pw.err
	}
	if err := pw.vecW.Flush(); err != nil {
		return pw.fail(err)
	}
	f, err := atomicfile.Create(pw.path)
	if err != nil {
		return pw.fail(err)
	}
	pw.f = f
	out := bufio.NewWriterSize(f, 1<<16)
	pw.w = &writeCounter{w: out, pageSize: pw.opts.PageSize}
	// Page 0 is a placeholder until the region offsets are known.
	ps, dim := pw.opts.PageSize, pw.opts.Dim
	if _, err := pw.w.Write(make([]byte, ps)); err != nil {
		return pw.fail(err)
	}

	perm := vectorset.BlockOrder(pw.ids, pw.cents, dim)
	starts := make([]uint64, 1, len(pw.starts))
	for _, i := range perm {
		lo, hi := pw.starts[i], pw.starts[i+1]
		b := pw.buf[:(hi-lo)*8]
		if _, err := pw.vec.ReadAt(b, int64(lo)*8); err != nil {
			return pw.fail(err)
		}
		if _, err := pw.w.Write(b); err != nil {
			return pw.fail(err)
		}
		starts = append(starts, starts[len(starts)-1]+hi-lo)
	}
	if err := pw.w.padToPage(); err != nil {
		return pw.fail(err)
	}
	vecBytes := starts[len(starts)-1] * 8

	offStart := pw.w.off
	enc := make([]byte, 0, (len(starts)+len(perm))*8)
	for _, s := range starts {
		enc = binary.LittleEndian.AppendUint64(enc, s)
	}
	for _, i := range perm {
		enc = binary.LittleEndian.AppendUint64(enc, pw.ids[i])
	}
	if _, err := pw.w.Write(enc); err != nil {
		return pw.fail(err)
	}
	if err := pw.w.padToPage(); err != nil {
		return pw.fail(err)
	}

	ctrStart := pw.w.off
	enc = enc[:0]
	for _, i := range perm {
		enc = putFloats(enc, pw.cents[i*dim:(i+1)*dim])
	}
	if _, err := pw.w.Write(enc); err != nil {
		return pw.fail(err)
	}
	if err := pw.w.padToPage(); err != nil {
		return pw.fail(err)
	}

	crcStart := pw.w.off
	numPages := int(crcStart) / ps
	fileSize := crcStart + int64(numPages)*4

	hp := make([]byte, ps)
	copy(hp, magic2[:])
	binary.LittleEndian.PutUint32(hp[8:], uint32(ps))
	binary.LittleEndian.PutUint32(hp[12:], uint32(pw.opts.Dim))
	binary.LittleEndian.PutUint32(hp[16:], uint32(pw.opts.MaxCard))
	binary.LittleEndian.PutUint64(hp[24:], uint64(len(pw.ids)))
	binary.LittleEndian.PutUint64(hp[32:], pw.opts.Seq)
	binary.LittleEndian.PutUint64(hp[40:], uint64(ps)) // vector region start
	binary.LittleEndian.PutUint64(hp[48:], vecBytes)
	binary.LittleEndian.PutUint64(hp[56:], uint64(offStart))
	binary.LittleEndian.PutUint64(hp[64:], uint64(ctrStart))
	binary.LittleEndian.PutUint64(hp[72:], uint64(crcStart))
	binary.LittleEndian.PutUint64(hp[80:], uint64(fileSize))
	putFloats(hp[pagedHeaderFixed:pagedHeaderFixed], pw.opts.Omega)
	hcrc := crc32.ChecksumIEEE(hp[:pagedHeaderFixed+pw.opts.Dim*8])
	binary.LittleEndian.PutUint32(hp[pagedHeaderFixed+pw.opts.Dim*8:], hcrc)
	pw.w.crcs[0] = crc32.ChecksumIEEE(hp)

	tbl := make([]byte, 0, numPages*4)
	for _, c := range pw.w.crcs[:numPages] {
		tbl = binary.LittleEndian.AppendUint32(tbl, c)
	}
	if _, err := out.Write(tbl); err != nil { // not through pw.w: the table is not self-covered
		return pw.fail(err)
	}
	if err := out.Flush(); err != nil {
		return pw.fail(err)
	}
	if _, err := pw.f.WriteAt(hp, 0); err != nil {
		return pw.fail(err)
	}
	pw.f = nil
	if err := f.Commit(); err != nil {
		return pw.fail(err)
	}
	pw.Abort() // the scratch file
	pw.err = fmt.Errorf("snapshot: paged writer already finished")
	return nil
}

// Abort discards the scratch file and the target's temporary. Safe to
// call any time, also after a failed Append or Finish (which clean up
// themselves); a no-op once Finish has returned.
func (pw *PagedWriter) Abort() {
	if pw.f != nil {
		pw.f.Abort()
		pw.f = nil
	}
	if pw.vec != nil {
		pw.vec.Close()
		os.Remove(pw.vec.Name())
		pw.vec = nil
	}
}

func (pw *PagedWriter) fail(err error) error {
	pw.err = err
	pw.Abort()
	return err
}

// ---------------------------------------------------------------------------
// Reader

// PagedReaderOptions tunes OpenPaged.
type PagedReaderOptions struct {
	// Tracker, if non-nil, is charged one page access plus the page's
	// bytes the first time each page is touched (verification and cost
	// accounting happen together, so the model reflects actual faults).
	Tracker *storage.Tracker
}

// PagedReader serves a version-2 snapshot in place. On linux the file is
// memory-mapped and every accessor returns views aliasing the mapping —
// opening a million-object snapshot does a constant amount of heap
// allocation regardless of size (pinned by TestOpenMmapAllocs). The
// views are valid until Close; callers that retain them (vsdb epoch
// views do) must keep the reader alive, and must never write through
// them — the mapping is read-only and shared with the page cache.
type PagedReader struct {
	f    *mmapfile.File
	data []byte

	pageSize int
	dim      int
	maxCard  int
	count    int
	omega    []float64
	seq      uint64

	vecStart int64
	ctrStart int64
	floats   []float64 // vector region as float64s
	starts   []uint64
	ids      []uint64
	cents    []float64 // centroid region as float64s
	crcs     []uint32
	verified []uint32 // atomic bitmap, one bit per page
	tracker  *storage.Tracker

	// A legacy sketch tail's signature words and their CRC, which Verify
	// checks (nil without a tail).
	tailWords    []byte
	tailWordsCRC uint32
}

// OpenPaged opens a version-2 paged snapshot. The header and offsets
// region are verified eagerly; vector and centroid pages lazily on
// first touch.
func OpenPaged(path string, opts PagedReaderOptions) (*PagedReader, error) {
	f, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := newPagedReader(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func newPagedReader(f *mmapfile.File, opts PagedReaderOptions) (*PagedReader, error) {
	data := f.Data()
	if data == nil {
		// No mmap on this platform (or mapping failed): fall back to one
		// bulk read. Costs heap, keeps every code path identical.
		data = make([]byte, f.Size())
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, err
		}
	}
	r := &PagedReader{f: f, data: data, tracker: opts.Tracker}
	if err := r.parseHeader(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *PagedReader) parseHeader() error {
	b := r.data
	if len(b) < pagedHeaderFixed+4 {
		return fmt.Errorf("%w: %d-byte file is no paged snapshot", ErrCorrupt, len(b))
	}
	var m [8]byte
	copy(m[:], b)
	if m != magic2 {
		return fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, m[:], magic2[:])
	}
	ps := int(binary.LittleEndian.Uint32(b[8:]))
	dim := int(binary.LittleEndian.Uint32(b[12:]))
	mc := int(binary.LittleEndian.Uint32(b[16:]))
	count := binary.LittleEndian.Uint64(b[24:])
	if ps < 512 || ps%8 != 0 || dim <= 0 || dim > maxDim || mc <= 0 || mc > maxCard ||
		count > maxObjects || pagedHeaderFixed+dim*8+4 > ps || len(b) < ps {
		return fmt.Errorf("%w: implausible header (pageSize=%d dim=%d maxCard=%d count=%d)", ErrCorrupt, ps, dim, mc, count)
	}
	if got, want := crc32.ChecksumIEEE(b[:pagedHeaderFixed+dim*8]),
		binary.LittleEndian.Uint32(b[pagedHeaderFixed+dim*8:]); got != want {
		return fmt.Errorf("%w: header CRC 0x%08x, want 0x%08x", ErrCorrupt, got, want)
	}
	r.pageSize, r.dim, r.maxCard, r.count = ps, dim, mc, int(count)
	r.seq = binary.LittleEndian.Uint64(b[32:])
	vecStart := int64(binary.LittleEndian.Uint64(b[40:]))
	vecBytes := int64(binary.LittleEndian.Uint64(b[48:]))
	offStart := int64(binary.LittleEndian.Uint64(b[56:]))
	ctrStart := int64(binary.LittleEndian.Uint64(b[64:]))
	crcStart := int64(binary.LittleEndian.Uint64(b[72:]))
	fileSize := int64(binary.LittleEndian.Uint64(b[80:]))
	r.omega = aliasFloat64(b[pagedHeaderFixed : pagedHeaderFixed+dim*8])

	pg := int64(ps)
	offBytes := int64(r.count+1)*8 + int64(r.count)*8
	ctrBytes := int64(r.count) * int64(dim) * 8
	numPages := crcStart / pg
	crcEnd := crcStart + numPages*4
	switch {
	case fileSize != int64(len(b)):
		return fmt.Errorf("%w: header says %d bytes, file has %d", ErrCorrupt, fileSize, len(b))
	case vecStart != pg,
		offStart%pg != 0 || ctrStart%pg != 0 || crcStart%pg != 0,
		offStart < vecStart+vecBytes || ctrStart < offStart+offBytes || crcStart < ctrStart+ctrBytes,
		// Tail-less files end exactly at the CRC table; anything longer
		// must be a well-formed legacy sketch tail, checked below.
		fileSize < crcEnd:
		return fmt.Errorf("%w: inconsistent region offsets", ErrCorrupt)
	}
	r.vecStart, r.ctrStart = vecStart, ctrStart
	r.crcs = aliasUint32(b[crcStart:crcEnd])
	r.verified = make([]uint32, (numPages+31)/32)
	if fileSize > crcEnd {
		if err := r.checkSketchTail(crcEnd, fileSize); err != nil {
			return err
		}
	}

	// Page 0 and the offsets pages are verified now — the reader's own
	// invariants live there; vector and centroid pages wait for first use.
	if err := r.checkRange(0, pg); err != nil {
		return err
	}
	if err := r.checkRange(offStart, offBytes); err != nil {
		return err
	}
	r.starts = aliasUint64(b[offStart : offStart+int64(r.count+1)*8])
	r.ids = aliasUint64(b[offStart+int64(r.count+1)*8 : offStart+offBytes])
	r.floats = aliasFloat64(b[vecStart : vecStart+vecBytes])
	r.cents = aliasFloat64(b[ctrStart : ctrStart+ctrBytes])

	if r.starts[0] != 0 || int64(r.starts[r.count])*8 != vecBytes {
		return fmt.Errorf("%w: offsets do not span the vector region", ErrCorrupt)
	}
	for i := 0; i < r.count; i++ {
		n := r.starts[i+1] - r.starts[i] // unsigned: a decrease shows up as huge
		if n == 0 || n%uint64(dim) != 0 || n/uint64(dim) > uint64(mc) {
			return fmt.Errorf("%w: object %d spans %d floats (dim %d, MaxCard %d)", ErrCorrupt, i, n, dim, mc)
		}
	}
	return nil
}

// checkSketchTail validates the legacy sketch trailer claimed by a file
// longer than its CRC table: zero alignment padding (no checksum covers
// it), magic, header CRC, an object count matching the snapshot, and an
// exact file length. Nothing reads the signatures; Verify checks their
// CRC, so that an intact file stays distinguishable from a damaged one.
func (r *PagedReader) checkSketchTail(crcEnd, fileSize int64) error {
	b := r.data
	tailStart := (crcEnd + 7) &^ 7
	if fileSize < tailStart+sketchTailHeader {
		return fmt.Errorf("%w: %d trailing bytes are no sketch tail", ErrCorrupt, fileSize-crcEnd)
	}
	for _, c := range b[crcEnd:tailStart] {
		if c != 0 {
			return fmt.Errorf("%w: non-zero padding before the sketch tail", ErrCorrupt)
		}
	}
	th := b[tailStart : tailStart+sketchTailHeader]
	var m [8]byte
	copy(m[:], th)
	if m != sketchTailMagic {
		return fmt.Errorf("%w: bad sketch tail magic %q", ErrCorrupt, m[:])
	}
	if got, want := crc32.ChecksumIEEE(th[:sketchTailHeader-4]),
		binary.LittleEndian.Uint32(th[sketchTailHeader-4:]); got != want {
		return fmt.Errorf("%w: sketch tail header CRC 0x%08x, want 0x%08x", ErrCorrupt, got, want)
	}
	bits := int64(binary.LittleEndian.Uint32(th[8:]))
	if bits <= 0 || bits > maxSketchBits || bits%64 != 0 {
		return fmt.Errorf("%w: sketch tail of %d-bit signatures", ErrCorrupt, bits)
	}
	if count := binary.LittleEndian.Uint64(th[24:]); count != uint64(r.count) {
		return fmt.Errorf("%w: sketch tail covers %d objects, snapshot has %d", ErrCorrupt, count, r.count)
	}
	end := tailStart + sketchTailHeader + int64(r.count)*bits/8
	if fileSize != end {
		return fmt.Errorf("%w: sketch tail wants %d bytes, file ends at %d", ErrCorrupt, end, fileSize)
	}
	r.tailWords = b[tailStart+sketchTailHeader : fileSize]
	r.tailWordsCRC = binary.LittleEndian.Uint32(th[32:])
	return nil
}

// CheckCentroids eagerly verifies the centroid region, returning
// ErrCorrupt instead of the panic a lazy first touch would raise. Load
// paths call it before handing the region to a filter index.
func (r *PagedReader) CheckCentroids() error {
	return r.checkRange(r.ctrStart, int64(r.count*r.dim)*8)
}

// Mapped reports whether the reader serves a memory mapping (false on
// the bulk-read fallback path).
func (r *PagedReader) Mapped() bool { return r.f.Mapped() }

// Len returns the object count.
func (r *PagedReader) Len() int { return r.count }

// Dim returns the vector dimensionality.
func (r *PagedReader) Dim() int { return r.dim }

// MaxCard returns the maximum set cardinality.
func (r *PagedReader) MaxCard() int { return r.maxCard }

// Omega returns the persisted ω weights. The slice aliases the mapping.
func (r *PagedReader) Omega() []float64 { return r.omega }

// Seq returns the persisted mutation epoch.
func (r *PagedReader) Seq() uint64 { return r.seq }

// PageSize returns the layout page size.
func (r *PagedReader) PageSize() int { return r.pageSize }

// ID returns the id of the i-th object (file order).
func (r *PagedReader) ID(i int) uint64 { return r.ids[i] }

// IDs returns all ids in file order. The slice aliases the mapping
// (appending to it copies, since its capacity equals its length).
func (r *PagedReader) IDs() []uint64 { return r.ids }

// At returns the i-th object's vector set aliasing the mapping: zero
// allocations, zero copies. The spanned pages are CRC-verified (and
// charged to the tracker) on first touch.
func (r *PagedReader) At(i int) vectorset.Flat {
	lo, hi := r.starts[i], r.starts[i+1]
	r.touchRange(r.vecStart+int64(lo)*8, int64(hi-lo)*8)
	return vectorset.Flat{
		Data: r.floats[lo:hi:hi],
		Card: int(hi-lo) / r.dim,
		Dim:  r.dim,
	}
}

// Centroid returns the i-th extended centroid aliasing the mapping.
func (r *PagedReader) Centroid(i int) []float64 {
	r.touchRange(r.ctrStart+int64(i*r.dim)*8, int64(r.dim)*8)
	return r.cents[i*r.dim : (i+1)*r.dim : (i+1)*r.dim]
}

// CentroidColumn returns the whole centroid region — Len()·Dim float64s,
// object i at [i·Dim, (i+1)·Dim) — aliasing the mapping: the column a
// filter index ranks in place (filter.SetStore). The region's pages are
// CRC-verified on first use, with a panic on damage like every lazy
// touch; call CheckCentroids first to get ErrCorrupt instead.
func (r *PagedReader) CentroidColumn() []float64 {
	r.touchRange(r.ctrStart, int64(r.count*r.dim)*8)
	return r.cents
}

// Centroids returns every extended centroid, aliased into the mapping
// (one allocation for the outer slice, none per centroid).
func (r *PagedReader) Centroids() [][]float64 {
	r.touchRange(r.ctrStart, int64(r.count*r.dim)*8)
	out := make([][]float64, r.count)
	for i := range out {
		out[i] = r.cents[i*r.dim : (i+1)*r.dim : (i+1)*r.dim]
	}
	return out
}

// Verify checks every page against the CRC table and a legacy sketch
// tail's words against their CRC, without panicking, marking clean pages
// verified (later touches are free). With the checks OpenPaged already
// made, Verify() == nil means every byte of the file was checked. Use it
// when a file's provenance is doubtful and a serve-time panic is
// unacceptable.
func (r *PagedReader) Verify() error {
	if err := r.checkRange(0, int64(len(r.crcs))*int64(r.pageSize)); err != nil {
		return err
	}
	if r.tailWords != nil {
		if got := crc32.ChecksumIEEE(r.tailWords); got != r.tailWordsCRC {
			return fmt.Errorf("%w: sketch words CRC 0x%08x, want 0x%08x", ErrCorrupt, got, r.tailWordsCRC)
		}
	}
	return nil
}

// Close releases the mapping. Every view handed out by the reader —
// sets, centroids, ids, ω — is invalid afterwards.
func (r *PagedReader) Close() error {
	r.data, r.floats, r.starts, r.ids, r.cents, r.crcs, r.omega = nil, nil, nil, nil, nil, nil, nil
	r.tailWords = nil
	return r.f.Close()
}

// touchRange lazily verifies the pages spanning [off, off+n) and panics
// on a CRC mismatch (wrapping ErrCorrupt): the data was valid at open
// and mid-serve damage has no recovery short of reopening.
func (r *PagedReader) touchRange(off, n int64) {
	if err := r.checkRange(off, n); err != nil {
		panic(err)
	}
}

func (r *PagedReader) checkRange(off, n int64) error {
	if n <= 0 {
		return nil
	}
	pg := int64(r.pageSize)
	for p := off / pg; p <= (off+n-1)/pg; p++ {
		if err := r.checkPage(p); err != nil {
			return err
		}
	}
	return nil
}

// checkPage verifies page p once. The verified bitmap makes repeat
// touches a single atomic load; the first goroutine to mark a page is
// the only one that charges the tracker, so accounting is exact under
// concurrent queries.
func (r *PagedReader) checkPage(p int64) error {
	word, bit := &r.verified[p/32], uint32(1)<<uint(p%32)
	if atomic.LoadUint32(word)&bit != 0 {
		return nil
	}
	start := p * int64(r.pageSize)
	page := r.data[start : start+int64(r.pageSize)]
	if got, want := crc32.ChecksumIEEE(page), r.crcs[p]; got != want {
		return fmt.Errorf("%w: page %d CRC 0x%08x, want 0x%08x", ErrCorrupt, p, got, want)
	}
	for {
		old := atomic.LoadUint32(word)
		if old&bit != 0 {
			return nil // lost the race; the winner charged the tracker
		}
		if atomic.CompareAndSwapUint32(word, old, old|bit) {
			if r.tracker != nil {
				r.tracker.AddPageAccess(1)
				r.tracker.AddBytes(r.pageSize)
			}
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Aliasing

// aliasFloat64 reinterprets b as []float64 without copying when the host
// is little-endian (the on-disk byte order) and b is 8-byte aligned —
// both guaranteed on the mmap path, where regions start on page
// boundaries. Otherwise it decodes a copy.
func aliasFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	return getFloats(b, len(b)/8)
}

func aliasUint64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func aliasUint32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// ---------------------------------------------------------------------------
// Conversion

// ConvertFile rewrites a snapshot as a version-2 paged file at dst: a
// version-1 stream is upgraded, a paged file is laid out again (pageSize
// 0 means storage.DefaultPageSize); either way a legacy sketch section is
// checked and dropped. It streams — peak memory is one
// object plus the paged writer's bookkeeping, never the whole database —
// and dst appears atomically, so src and dst may be the same path: the
// source is replaced only once the conversion has succeeded.
func ConvertFile(src, dst string, pageSize int) error {
	ver, err := SniffFile(src)
	if err != nil {
		return err
	}
	if ver == 1 {
		return convertV1(src, dst, pageSize)
	}
	r, err := OpenPaged(src, PagedReaderOptions{})
	if err != nil {
		return err
	}
	defer r.Close()
	// Verify eagerly: a lazy first touch panics on corruption, and a
	// conversion of an untrusted file must fail with ErrCorrupt instead.
	if err := r.Verify(); err != nil {
		return err
	}
	w, err := CreatePaged(dst, PagedWriterOptions{
		Dim: r.Dim(), MaxCard: r.MaxCard(), Omega: r.Omega(), Seq: r.Seq(), PageSize: pageSize,
	})
	if err != nil {
		return err
	}
	defer w.Abort() // a no-op once Finish commits
	for i := 0; i < r.Len(); i++ {
		if err := w.Append(r.ID(i), r.At(i)); err != nil {
			return err
		}
	}
	return w.Finish()
}
