package dist

import (
	"math"
	"math/rand"
	"testing"
)

func randVecSet(rng *rand.Rand, card, dim int) [][]float64 {
	s := make([][]float64, card)
	for i := range s {
		s[i] = make([]float64, dim)
		for j := range s[i] {
			s[i][j] = rng.NormFloat64() * 3
		}
	}
	return s
}

// TestWorkspaceMatchingMatchesBrute reuses one workspace across many
// differently-sized problems and checks every distance against the
// brute-force enumeration.
func TestWorkspaceMatchingMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	for trial := 0; trial < 60; trial++ {
		x := randVecSet(rng, rng.Intn(6), 3)
		y := randVecSet(rng, rng.Intn(6), 3)
		got := ws.MatchingDistance(x, y, L2, WeightNorm)
		want := matchingBrute(x, y, L2, WeightNorm)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d): ws %v, brute %v", trial, len(x), len(y), got, want)
		}
	}
}

// TestMatchingDistanceZeroAllocs is the tentpole acceptance check: the
// pooled package-level MatchingDistance must not allocate in steady
// state.
func TestMatchingDistanceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	rng := rand.New(rand.NewSource(2))
	x := randVecSet(rng, 7, 6)
	y := randVecSet(rng, 5, 6)
	// Warm the pool so buffers reach their steady-state sizes.
	for i := 0; i < 10; i++ {
		MatchingDistance(x, y, L2, WeightNorm)
	}
	if n := testing.AllocsPerRun(100, func() {
		MatchingDistance(x, y, L2, WeightNorm)
	}); n != 0 {
		t.Errorf("MatchingDistance allocates %v per call, want 0", n)
	}
}

// TestPooledPartialMatching exercises the flow-network reuse: repeated
// calls through the pool must keep matching the brute-force result.
func TestPooledPartialMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		x := randVecSet(rng, 1+rng.Intn(4), 2)
		y := randVecSet(rng, 1+rng.Intn(4), 2)
		i := 1 + rng.Intn(min(len(x), len(y)))
		got := PartialMatching(x, y, L2, i)
		want := partialBrute(x, y, L2, i)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (i=%d): pooled %v, brute %v", trial, i, got, want)
		}
	}
}

// TestWorkspaceAssignReuse checks that ws.Assign stays correct when one
// workspace solves problems of shrinking and growing sizes.
func TestWorkspaceAssignReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	for _, n := range []int{5, 2, 7, 1, 4} {
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 10
			}
		}
		asg, total := ws.Assign(cost)
		_, wantTotal := assignBrute(cost)
		if math.Abs(total-wantTotal) > 1e-9 {
			t.Fatalf("n=%d: ws total %v, brute %v", n, total, wantTotal)
		}
		used := make([]bool, n)
		for _, j := range asg {
			if j < 0 || j >= n || used[j] {
				t.Fatalf("n=%d: invalid assignment %v", n, asg)
			}
			used[j] = true
		}
	}
}
