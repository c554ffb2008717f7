package vectorset

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidatesDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ragged vectors")
		}
	}()
	New([][]float64{{1, 2}, {3}})
}

func TestCardDim(t *testing.T) {
	s := New([][]float64{{1, 2, 3}, {4, 5, 6}})
	if s.Card() != 2 || s.Dim() != 3 {
		t.Errorf("card=%d dim=%d", s.Card(), s.Dim())
	}
	var e Set
	if e.Card() != 0 || e.Dim() != 0 {
		t.Error("empty set card/dim")
	}
}

func TestCentroidFullSet(t *testing.T) {
	s := New([][]float64{{0, 0}, {2, 4}})
	c := s.Centroid(2, []float64{0, 0})
	if c[0] != 1 || c[1] != 2 {
		t.Errorf("centroid = %v", c)
	}
}

func TestCentroidPadsWithOmega(t *testing.T) {
	s := New([][]float64{{3, 3}})
	c := s.Centroid(3, []float64{6, 0})
	// (3 + 2·6)/3 = 5, (3 + 0)/3 = 1
	if c[0] != 5 || c[1] != 1 {
		t.Errorf("centroid = %v", c)
	}
}

func TestCentroidZeroOfEmptySet(t *testing.T) {
	var s Set
	c := s.Centroid(4, make([]float64, 6)) // the paper's ω = 0
	for _, v := range c {
		if v != 0 {
			t.Errorf("empty-set centroid = %v", c)
		}
	}
}

func TestCentroidCardinalityExceedsKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New([][]float64{{1}, {2}}).Centroid(1, []float64{0})
}

func TestCentroidOmegaDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New([][]float64{{1, 2}}).Centroid(2, []float64{0})
}

// Lemma 2: k·‖C(X) − C(Y)‖₂ ≤ dist_mm(X, Y) with Euclidean ground
// distance and w_ω weights, for random sets and random ω.
// TestCentroidLowerBoundsMatchingDistance lives in lowerbound_ext_test.go
// (an external test package): it needs internal/dist, which now imports
// this package for the flat kernels, so an in-package test would cycle.

func randVecs(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64() * 10
		}
	}
	return out
}

// The lower bound must be tight for identical sets and positive for sets
// with different centroids.
func TestCentroidLowerBoundProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randVecs(rng, 1+rng.Intn(5), 4)
		omega := make([]float64, 4)
		cx := New(x).Centroid(6, omega)
		return CentroidLowerBound(cx, cx, 6) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCentroidLowerBoundDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	CentroidLowerBound([]float64{1}, []float64{1, 2}, 3)
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		s := New(randVecs(rng, rng.Intn(8), 6))
		if s.Card() == 0 {
			s = Set{} // exercise the empty path too
		}
		var buf bytes.Buffer
		n, err := s.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if int(n) != EncodedSize(s.Card(), s.Dim()) {
			t.Fatalf("wrote %d bytes, want %d", n, EncodedSize(s.Card(), s.Dim()))
		}
		var back Set
		m, err := back.ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m != n {
			t.Fatalf("read %d bytes, wrote %d", m, n)
		}
		if back.Card() != s.Card() {
			t.Fatalf("cardinality %d vs %d", back.Card(), s.Card())
		}
		for i := range s.Vectors {
			for j := range s.Vectors[i] {
				if back.Vectors[i][j] != s.Vectors[i][j] {
					t.Fatal("vector data corrupted")
				}
			}
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	var s Set
	// Implausibly large header.
	hdr := []byte{0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f}
	if _, err := s.ReadFrom(bytes.NewReader(hdr)); err == nil {
		t.Error("expected error for implausible header")
	}
	// Truncated body.
	var buf bytes.Buffer
	orig := New([][]float64{{1, 2, 3}})
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := s.ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Error("expected error for truncated body")
	}
}

func TestEncodedSize(t *testing.T) {
	if EncodedSize(0, 0) != 8 {
		t.Error("empty set should be 8 bytes")
	}
	if EncodedSize(7, 6) != 8+7*6*8 {
		t.Error("size formula wrong")
	}
}

func TestCentroidSpecialValues(t *testing.T) {
	// NaN-free on normal input.
	s := New([][]float64{{1e300, -1e300}})
	c := s.Centroid(2, []float64{0, 0})
	if math.IsNaN(c[0]) || math.IsNaN(c[1]) {
		t.Error("centroid produced NaN")
	}
}
