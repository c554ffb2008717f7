package dist

import (
	"math"
	"math/rand"
	"testing"
)

func randSet(rng *rand.Rand, n, d int) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, d)
		for j := range s[i] {
			s[i][j] = math.Floor(rng.Float64()*200-100) / 10
		}
	}
	return s
}

func TestMinimalMatchingIdentical(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	m := MinimalMatching(x, x, L2, WeightNorm)
	if m.Distance != 0 {
		t.Errorf("d(X,X) = %v", m.Distance)
	}
	if m.Proper() {
		t.Error("identical sets need no proper permutation")
	}
}

func TestMinimalMatchingEmptySets(t *testing.T) {
	x := [][]float64{{3, 4}}
	if got := MatchingDistance(nil, nil, L2, WeightNorm); got != 0 {
		t.Errorf("d(∅,∅) = %v", got)
	}
	if got := MatchingDistance(x, nil, L2, WeightNorm); got != 5 {
		t.Errorf("d(X,∅) = %v, want weight 5", got)
	}
	if got := MatchingDistance(nil, x, L2, WeightNorm); got != 5 {
		t.Errorf("d(∅,X) = %v, want weight 5", got)
	}
}

func TestMinimalMatchingUnequalCardinality(t *testing.T) {
	x := [][]float64{{3, 4}, {10, 0}}
	y := [][]float64{{3, 5}}
	// Best: match (3,4)↔(3,5) at cost 1, leave (10,0) unmatched at
	// ‖(10,0)‖ = 10 (total 11); the alternative pairing costs ≈ 13.6.
	m := MinimalMatching(x, y, L2, WeightNorm)
	if math.Abs(m.Distance-11) > 1e-12 {
		t.Errorf("distance = %v, want 11", m.Distance)
	}
	if m.XtoY[0] != 0 || m.XtoY[1] != -1 {
		t.Errorf("XtoY = %v", m.XtoY)
	}
	if m.YtoX[0] != 0 {
		t.Errorf("YtoX = %v", m.YtoX)
	}
}

func TestMinimalMatchingSwappedArguments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		x := randSet(rng, 1+rng.Intn(5), 3)
		y := randSet(rng, 1+rng.Intn(5), 3)
		a := MinimalMatching(x, y, L2, WeightNorm)
		b := MinimalMatching(y, x, L2, WeightNorm)
		if math.Abs(a.Distance-b.Distance) > 1e-9 {
			t.Fatalf("symmetry violated: %v vs %v", a.Distance, b.Distance)
		}
		if len(a.XtoY) != len(x) || len(a.YtoX) != len(y) {
			t.Fatal("result maps have wrong lengths")
		}
	}
}

func TestMinimalMatchingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		x := randSet(rng, 1+rng.Intn(5), 2)
		y := randSet(rng, 1+rng.Intn(5), 2)
		fast := MatchingDistance(x, y, L2, WeightNorm)
		slow := matchingBrute(x, y, L2, WeightNorm)
		if math.Abs(fast-slow) > 1e-9 {
			t.Fatalf("trial %d: hungarian %v != brute %v", trial, fast, slow)
		}
	}
}

func TestMinimalMatchingProperPermutation(t *testing.T) {
	// Sequences whose best alignment crosses: x = (a, b), y = (b', a').
	x := [][]float64{{0, 0}, {10, 10}}
	y := [][]float64{{10, 10}, {0, 0}}
	m := MinimalMatching(x, y, L2, WeightNorm)
	if m.Distance != 0 {
		t.Errorf("distance = %v", m.Distance)
	}
	if !m.Proper() {
		t.Error("crossing alignment must be flagged as proper permutation")
	}
}

// Metric axioms (Lemma 1): with Euclidean ground distance and the norm
// weight function, the minimal matching distance is a metric.
func TestMinimalMatchingMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		x := randSet(rng, 1+rng.Intn(4), 2)
		y := randSet(rng, 1+rng.Intn(4), 2)
		z := randSet(rng, 1+rng.Intn(4), 2)
		dxy := MatchingDistance(x, y, L2, WeightNorm)
		dyx := MatchingDistance(y, x, L2, WeightNorm)
		dxz := MatchingDistance(x, z, L2, WeightNorm)
		dyz := MatchingDistance(y, z, L2, WeightNorm)
		if math.Abs(dxy-dyx) > 1e-9 {
			t.Fatalf("symmetry: %v vs %v", dxy, dyx)
		}
		if dxy < 0 {
			t.Fatalf("negative distance %v", dxy)
		}
		if dxz > dxy+dyz+1e-9 {
			t.Fatalf("triangle inequality violated: d(x,z)=%v > d(x,y)+d(y,z)=%v",
				dxz, dxy+dyz)
		}
	}
}

// The paper §4.2: minimum Euclidean distance under permutation equals the
// square root of the matching distance with squared Euclidean ground and
// squared norm weights — and both equal the brute-force k! enumeration.
func TestMinEuclideanPermEquivalences(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		x := randSet(rng, 1+rng.Intn(4), 3)
		y := randSet(rng, 1+rng.Intn(4), 3)
		fast := MinEuclideanPerm(x, y)
		slow := MinEuclideanPermBrute(x, y)
		if math.Abs(fast-slow) > 1e-9 {
			t.Fatalf("trial %d: matching-derived %v != brute %v", trial, fast, slow)
		}
	}
}

func TestMinEuclideanPermEmpty(t *testing.T) {
	if got := MinEuclideanPermBrute(nil, nil); got != 0 {
		t.Errorf("brute(∅,∅) = %v", got)
	}
	x := [][]float64{{3, 4}}
	if got := MinEuclideanPerm(x, nil); got != 5 {
		t.Errorf("perm distance to empty = %v", got)
	}
	if got := MinEuclideanPermBrute(x, nil); got != 5 {
		t.Errorf("brute perm distance to empty = %v", got)
	}
}

func TestWeightNormTo(t *testing.T) {
	w := WeightNormTo([]float64{1, 1})
	if got := w([]float64{4, 5}); got != 5 {
		t.Errorf("w = %v", got)
	}
	if WeightNorm([]float64{3, 4}) != 5 || WeightNormSquared([]float64{3, 4}) != 25 {
		t.Error("norm weights wrong")
	}
}

// Weight-function lower bound sanity: distance to the empty set is the sum
// of the weights, an upper bound for any other matching distance with a
// shared partner set (monotonicity sanity check).
func TestMatchingBoundedByWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		x := randSet(rng, 1+rng.Intn(5), 2)
		y := randSet(rng, 1+rng.Intn(5), 2)
		dxy := MatchingDistance(x, y, L2, WeightNorm)
		dx0 := MatchingDistance(x, nil, L2, WeightNorm)
		dy0 := MatchingDistance(y, nil, L2, WeightNorm)
		// Triangle through ∅ : d(x,y) ≤ d(x,∅) + d(∅,y).
		if dxy > dx0+dy0+1e-9 {
			t.Fatalf("d(x,y)=%v exceeds d(x,∅)+d(∅,y)=%v", dxy, dx0+dy0)
		}
	}
}

func BenchmarkMinimalMatchingK7(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randSet(rng, 7, 6)
	y := randSet(rng, 7, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchingDistance(x, y, L2, WeightNorm)
	}
}

func BenchmarkMinEuclideanPermBruteK7(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randSet(rng, 7, 6)
	y := randSet(rng, 7, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinEuclideanPermBrute(x, y)
	}
}
