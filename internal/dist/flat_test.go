package dist

import (
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// TestFlatMatchingParity pins bit equality between the flat matching
// kernel and the generic workspace path it specializes, across random
// cardinalities (including empty sets, the padded |x|≠|y| cases and the
// square case), zero and random ω, and several dimensions.
func TestFlatMatchingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var flatWS, genWS Workspace
	for _, d := range []int{3, 6, 9} {
		for trial := 0; trial < 200; trial++ {
			cx, cy := rng.Intn(8), rng.Intn(8) // 0..7, empty included
			x := randRows(rng, cx, d)
			y := randRows(rng, cy, d)
			omega := make([]float64, d)
			if trial%2 == 1 {
				for i := range omega {
					omega[i] = rng.NormFloat64() * 5
				}
			}
			xf, yf := vectorset.FlatFromRows(x), vectorset.FlatFromRows(y)
			if xf.Card > 0 {
				xf.Dim = d
			} else {
				xf = vectorset.Flat{Dim: d}
			}
			if yf.Card == 0 {
				yf = vectorset.Flat{Dim: d}
			}
			got := flatWS.MatchingDistanceFlat(xf, yf, omega)
			want := genWS.MatchingDistance(x, y, L2, WeightNormTo(omega))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d trial %d (|x|=%d |y|=%d): flat %v, generic %v", d, trial, cx, cy, got, want)
			}
		}
	}
}

// TestCentroidLowerBoundFlatParity pins the flat Lemma 2 bound against
// the vectorset implementation.
func TestCentroidLowerBoundFlatParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const k, d = 7, 6
	for trial := 0; trial < 200; trial++ {
		cx := make([]float64, d)
		cy := make([]float64, d)
		for i := 0; i < d; i++ {
			cx[i] = rng.NormFloat64()
			cy[i] = rng.NormFloat64()
		}
		got := CentroidLowerBoundFlat(cx, cy, k)
		want := vectorset.CentroidLowerBound(cx, cy, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: flat %v, vectorset %v", trial, got, want)
		}
	}
}

// TestMatchingDistanceFlatAllocs pins the flat kernel (including the
// record-decode staging through Floats) at zero steady-state
// allocations, on every exit of the bounded entry point: the row bound,
// the column bound and the solve.
func TestMatchingDistanceFlatAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const d = 6
	x := vectorset.FlatFromRows(randRows(rng, 7, d))
	y := vectorset.FlatFromRows(randRows(rng, 5, d))
	omega := make([]float64, d)
	rec := y.AppendEncode(nil)
	var ws Workspace
	want := ws.MatchingDistanceFlat(x, y, omega) // warm the scratch
	ws.Floats(len(y.Data))
	allocs := testing.AllocsPerRun(100, func() {
		card, dim, err := vectorset.FlatHeader(rec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := vectorset.DecodeFlatInto(ws.Floats(card*dim), rec)
		if err != nil {
			t.Fatal(err)
		}
		ws.MatchingDistanceFlat(x, f, omega)
		for _, b := range [...]float64{0, want / 2, want * 0.99, want} {
			ws.MatchingDistanceFlatWithin(x, f, omega, b)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode+matching allocates %v per run, want 0", allocs)
	}
}

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64() * 10
		}
	}
	return out
}
