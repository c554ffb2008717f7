// Package snapshot defines the persistent on-disk format for a vsdb
// vector set database together with the centroid column its filter ranks
// (DESIGN.md §7, §11). The paper's evaluation (§5.4) assumes the database
// and its access structures outlive a single process; this package is
// what makes that true for the reproduction: a voxgen/experiments build
// is written once and served by cmd/voxserve for arbitrarily many
// queries.
//
// Every snapshot is written in one layout, the paged version 2
// ("VXSNAP02", paged.go): a file a server maps and serves in place, with
// each object's extended centroid stored beside its vectors and every
// page checked against a CRC table on first touch, when the
// storage.Tracker is charged for it. Sharded directories add a JSON
// manifest (manifest.go).
//
// Version 1 ("VXSNAP01", v1.go) is the chunk stream earlier builds wrote
// and decoded onto the heap. Nothing writes it any more; ConvertFile
// still reads it, so an old file upgrades to version 2 — vsdb.OpenFile
// does that in place, once.
package snapshot

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrCorrupt is wrapped by every decoding error caused by damaged or
// hostile input (bad magic, checksum mismatch, truncation, implausible
// field). errors.Is(err, ErrCorrupt) distinguishes data corruption from
// I/O failures of the underlying reader.
var ErrCorrupt = errors.New("snapshot: corrupt stream")

// Sanity bounds on decoded fields: they reject hostile headers before any
// large allocation. Dimensions/cardinalities beyond these are no real
// vsdb configuration.
const (
	maxDim  = 1 << 16
	maxCard = 1 << 20
)

func putFloats(buf []byte, vals []float64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func getFloats(b []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
