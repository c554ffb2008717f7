package vsdb

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/wal"
)

// TestNonFiniteRejected: every write entry point a caller reaches without
// the HTTP edge — Insert, BulkInsert — refuses a set with a NaN or ±Inf
// coordinate with ErrNonFinite and leaves the database untouched.
func TestNonFiniteRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		set := [][]float64{{1, 2, 3}, {4, bad, 6}}
		db, err := Open(Config{Dim: 3, MaxCard: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(1, set); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Insert with %v: %v, want ErrNonFinite", bad, err)
		}
		good := [][]float64{{0, 0, 0}}
		if err := db.BulkInsert([]uint64{1, 2}, [][][]float64{good, set}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("BulkInsert with %v: %v, want ErrNonFinite", bad, err)
		}
		if db.Len() != 0 || db.Epoch() != 0 {
			t.Fatalf("rejected writes changed the database: %d objects at epoch %d", db.Len(), db.Epoch())
		}
	}
}

// FuzzInsertFinite: Insert accepts a set exactly when every coordinate is
// finite — then it stores it bit for bit — and otherwise refuses it with
// ErrNonFinite, whatever the bytes.
func FuzzInsertFinite(f *testing.F) {
	const dim = 3
	enc := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(1, 2, 3))
	f.Add(enc(1, 2, 3, 4, math.NaN(), 6))
	f.Add(enc(math.Inf(-1), 0, 0))
	f.Add(enc(math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, data []byte) {
		card := min(len(data)/(8*dim), 4)
		if card == 0 {
			return
		}
		set := make([][]float64, card)
		finite := true
		for i := range set {
			set[i] = make([]float64, dim)
			for j := range set[i] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[(i*dim+j)*8:]))
				set[i][j] = v
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
		}
		db, err := Open(Config{Dim: dim, MaxCard: 4})
		if err != nil {
			t.Fatal(err)
		}
		err = db.Insert(7, set)
		switch {
		case finite && err != nil:
			t.Fatalf("finite set %v refused: %v", set, err)
		case !finite && !errors.Is(err, ErrNonFinite):
			t.Fatalf("set %v: %v, want ErrNonFinite", set, err)
		case finite:
			got := db.Get(7)
			for i := range set {
				for j := range set[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(set[i][j]) {
						t.Fatalf("stored %v, inserted %v", got, set)
					}
				}
			}
		}
	})
}

// TestReplayRefusesNonFinite: a log record or a shipped record is checked
// like an Insert — a CRC-valid record whose set carries a NaN or ±Inf is
// refused with ErrNonFinite by AttachWAL, ReplayWALFile and ApplyRecord
// alike, and the database keeps the state it had.
func TestReplayRefusesNonFinite(t *testing.T) {
	cfg := Config{Dim: 3, MaxCard: 4}
	good := [][]float64{{1, 2, 3}}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		set := [][]float64{{0, 0, 0}, {1, bad, 1}}
		path := filepath.Join(t.TempDir(), "bad.wal")
		f, _, err := wal.OpenFile(path, wal.Config{Dim: 3, MaxCard: 4, Omega: make([]float64, 3)}, wal.FileOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AppendBatch([]wal.Record{{Op: wal.OpInsert, ID: 1, Set: good}, {Op: wal.OpInsert, ID: 2, Set: set}}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		for name, replay := range map[string]func(*DB) error{
			"AttachWAL":     func(db *DB) error { return db.AttachWAL(path, WALOptions{NoSync: true}) },
			"ReplayWALFile": func(db *DB) error { return db.ReplayWALFile(path) },
			"ApplyRecord":   func(db *DB) error { return db.ApplyRecord(wal.Record{Seq: 1, Op: wal.OpInsert, ID: 2, Set: set}) },
		} {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay(db); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%s of a record holding %v: %v, want ErrNonFinite", name, bad, err)
			}
			if db.Len() != 0 || db.Epoch() != 0 || db.WALRecords() != 0 {
				t.Fatalf("%s of a refused record changed the database: %d objects at epoch %d, %d log records",
					name, db.Len(), db.Epoch(), db.WALRecords())
			}
			db.Close()
		}
	}
}

// FuzzSearchFinite: a query whose set has a NaN or ±Inf coordinate or a
// vector of the wrong dimension is refused by Search with an error — never
// a panic, never an answer, and never by running until the context's one
// second is up (an infinite coordinate once spun in the matching solver).
func FuzzSearchFinite(f *testing.F) {
	const dim = 3
	db, err := Open(Config{Dim: dim, MaxCard: 4})
	if err != nil {
		f.Fatal(err)
	}
	for id := uint64(1); id <= 40; id++ {
		x := float64(id)
		if err := db.Insert(id, [][]float64{{x, -x, 1}, {x / 2, 0, x}}); err != nil {
			f.Fatal(err)
		}
	}
	enc := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), uint8(0), enc(1, 2, 3))
	f.Add(uint8(1), uint8(1), enc(1, 2, 3, 4, 5, 6))
	f.Add(uint8(2), uint8(7), enc(1, 2, 3, 4))
	f.Add(uint8(3), uint8(2), enc(math.Inf(1), 0, 0, 0, math.NaN(), 0))
	f.Fuzz(func(t *testing.T, mode, at uint8, data []byte) {
		// The set: up to 4 vectors of dimension dim, or dim+1 in one of
		// them when mode says so.
		vals := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		card := min(max(len(vals)/dim, 1), 4)
		set := make([][]float64, card)
		for i := range set {
			set[i] = make([]float64, dim)
			for j := range set[i] {
				if k := i*dim + j; k < len(vals) {
					set[i][j] = vals[k]
				}
			}
		}
		wrongDim := mode%4 == 2
		if wrongDim {
			set[int(at)%card] = append(set[int(at)%card], 0)
		}
		finite := true
		for _, v := range set {
			for _, x := range v {
				finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
			}
		}
		if finite && !wrongDim {
			// Inject: every input the fuzzer builds is malformed.
			set[int(at)%card][int(at)%dim] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[mode%3]
			finite = false
		}
		q := Query{Set: set, Kind: KNN, K: 5}
		if mode%2 == 1 {
			q = Query{Set: set, Kind: Range, Eps: 3}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		out, err := db.Search(ctx, []Query{{Set: [][]float64{{0, 0, 0}}, Kind: KNN, K: 1}, q})
		switch {
		case err == nil:
			t.Fatalf("malformed query %v answered %v", set, out)
		case ctx.Err() != nil:
			t.Fatalf("malformed query %v ran until the context expired: %v", set, err)
		case !wrongDim && !errors.Is(err, ErrNonFinite):
			t.Fatalf("non-finite query %v: %v, want ErrNonFinite", set, err)
		}
	})
}
