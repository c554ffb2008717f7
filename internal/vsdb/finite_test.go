package vsdb

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// TestNonFiniteRejected: every write entry point a caller reaches without
// the HTTP edge — Insert, BulkInsert, BulkBuildFromStream — refuses a set
// with a NaN or ±Inf coordinate with ErrNonFinite and leaves the
// database (or the target path) untouched.
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
		path := filepath.Join(t.TempDir(), "stream.snap")
		sent := 0
		next := func() (uint64, vectorset.Flat, error) {
			if sent == 2 {
				return 0, vectorset.Flat{}, io.EOF
			}
			sent++
			if sent == 2 {
				return 2, vectorset.FlatFromRows(set), nil
			}
			return 1, vectorset.FlatFromRows(good), nil
		}
		if _, err := BulkBuildFromStream(path, Config{Dim: 3, MaxCard: 4}, 0, next, LoadOptions{}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("BulkBuildFromStream with %v: %v, want ErrNonFinite", bad, err)
		}
		if _, err := OpenFile(path, LoadOptions{}); err == nil {
			t.Fatalf("a rejected stream build left a snapshot at %s", path)
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
