package dist

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// checkWithin holds the threshold-aware kernel to its contract for one
// pair, against the unbounded kernel, at bounds on and around the true
// distance plus the caller's extras:
//
//	within  ⇒ d is bit-identical to MatchingDistanceFlat
//	!within ⇒ MatchingDistanceFlat > bound
//	bound ≥ MatchingDistanceFlat ⇒ within
//
// in both argument orders (the kernel's summation order follows the
// larger set). It returns how many of the calls pruned.
func checkWithin(t *testing.T, ws *Workspace, x, y vectorset.Flat, omega []float64, extra ...float64) (pruned int) {
	t.Helper()
	for _, pair := range [2][2]vectorset.Flat{{x, y}, {y, x}} {
		a, c := pair[0], pair[1]
		want := ws.MatchingDistanceFlat(a, c, omega)
		bounds := append([]float64{
			0, want / 2, want * (1 - 1e-15), want, want * (1 + 1e-15),
			math.Nextafter(want, math.Inf(-1)), math.Nextafter(want, math.Inf(1)),
			2 * want, math.Inf(1), math.NaN(),
		}, extra...)
		for _, b := range bounds {
			d, within := ws.MatchingDistanceFlatWithin(a, c, omega, b)
			switch {
			case within && math.Float64bits(d) != math.Float64bits(want):
				t.Fatalf("bound %v (|x|=%d |y|=%d): within with d=%v, unbounded kernel %v", b, a.Card, c.Card, d, want)
			case !within && !(want > b):
				t.Fatalf("bound %v (|x|=%d |y|=%d): pruned, but the distance is %v", b, a.Card, c.Card, want)
			case !within && !math.IsInf(d, 1):
				t.Fatalf("bound %v: pruned with d=%v, want +Inf", b, d)
			case b >= want && !within:
				t.Fatalf("bound %v ≥ distance %v pruned", b, want)
			}
			if !within {
				pruned++
			}
		}
	}
	return pruned
}

func flatOf(rows [][]float64, dim int) vectorset.Flat {
	if len(rows) == 0 {
		return vectorset.Flat{Dim: dim}
	}
	return vectorset.FlatFromRows(rows)
}

// TestMatchingWithinRandom runs the contract over random pairs of every
// cardinality mix 0..7 (empty sets, the padded dummy-column cases, the
// square case), zero and random ω — and checks that the bounds do prune:
// a kernel that always solves satisfies the contract vacuously.
func TestMatchingWithinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ws Workspace
	pruned, pairs := 0, 0
	for _, dim := range []int{3, 6} {
		for trial := 0; trial < 300; trial++ {
			x := flatOf(randRows(rng, rng.Intn(8), dim), dim)
			y := flatOf(randRows(rng, rng.Intn(8), dim), dim)
			omega := make([]float64, dim)
			if trial%2 == 1 {
				for i := range omega {
					omega[i] = rng.NormFloat64() * 5
				}
			}
			pruned += checkWithin(t, &ws, x, y, omega)
			pairs++
		}
	}
	// A pair of non-empty sets is pruned at bound 0 both ways round, and
	// about three in four pairs are that.
	if pruned < pairs {
		t.Fatalf("%d prunes over %d pairs: the bounds are not cutting", pruned, pairs)
	}
}

// TestMatchingWithinAdversarial is the standing adversarial property
// suite for the kernel (the ROADMAP aim "Correctness and robustness"):
// inputs built to tie — duplicate and zero-norm vectors, identical sets,
// mirror images, integer lattice covers whose cells collide exactly — at
// cardinalities 1, MaxCard and unequal, where a bound that is off by one
// rounding would prune a candidate that ties the threshold.
func TestMatchingWithinAdversarial(t *testing.T) {
	const dim, maxCard = 6, 7
	rng := rand.New(rand.NewSource(29))
	lattice := func(card int) [][]float64 {
		rows := make([][]float64, card)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = float64(rng.Intn(5) - 2)
			}
		}
		return rows
	}
	mirror := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = append([]float64(nil), r...)
			out[i][0] = -out[i][0]
		}
		return out
	}
	repeat := func(v []float64, card int) [][]float64 {
		out := make([][]float64, card)
		for i := range out {
			out[i] = v
		}
		return out
	}
	zero := make([]float64, dim)
	one := lattice(1)[0]
	full := lattice(maxCard)
	cases := map[string][2][][]float64{
		"identical":           {full, full},
		"mirror":              {full, mirror(full)},
		"duplicates":          {repeat(one, maxCard), repeat(one, 3)},
		"duplicates-vs-other": {repeat(one, maxCard), lattice(maxCard)},
		"zero-norm":           {repeat(zero, maxCard), repeat(zero, 2)},
		"zero-vs-lattice":     {repeat(zero, 4), lattice(maxCard)},
		"card-1":              {lattice(1), lattice(1)},
		"card-1-vs-max":       {lattice(1), lattice(maxCard)},
		"card-0-vs-max":       {nil, lattice(maxCard)},
		"card-0-vs-0":         {nil, nil},
		"unequal-lattice":     {lattice(3), lattice(6)},
		"tied-lattice":        {lattice(maxCard), lattice(maxCard)},
	}
	var ws Workspace
	for name, c := range cases {
		for _, omega := range [][]float64{zero, {1, -1, 2, 0, 0, 1}} {
			x, y := flatOf(c[0], dim), flatOf(c[1], dim)
			// Integer thresholds are the exactly-tied case: lattice
			// distances are sums of square roots of small integers.
			checkWithin(t, &ws, x, y, omega, 1, 2, 3, math.Sqrt2, math.Nextafter(0, -1))
			if name == "identical" {
				if d, within := ws.MatchingDistanceFlatWithin(x, y, omega, 0); !within || d != 0 {
					t.Fatalf("identical sets at bound 0: d=%v within=%v", d, within)
				}
			}
		}
	}
	// Many tied lattice pairs, not just the named ones.
	for trial := 0; trial < 500; trial++ {
		x := flatOf(lattice(1+rng.Intn(maxCard)), dim)
		y := flatOf(lattice(1+rng.Intn(maxCard)), dim)
		checkWithin(t, &ws, x, y, zero, 1, 2, 3, 5, 8)
	}
}

// fuzzCoord maps 8 raw bytes to a coordinate the engine can be handed:
// non-finite values are rejected before it (HTTP decode), and beyond
// 1e100 the squared cells overflow, which the unbounded kernel does not
// survive either.
func fuzzCoord(b []byte) float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if v != v || math.Abs(v) > 1e100 {
		return 0
	}
	return v
}

// FuzzMatchingWithin drives the kernel contract from raw float bytes:
// the two sets' coordinates, their cardinalities and the bound are all
// the fuzzer's.
func FuzzMatchingWithin(f *testing.F) {
	const dim = 3
	seed := make([]byte, 8*dim*6)
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(float64(i%5)-2))
	}
	f.Add(seed, uint8(3), uint8(3), math.Float64bits(1))
	f.Add(seed, uint8(1), uint8(5), math.Float64bits(0))
	f.Add(seed[:8*dim], uint8(7), uint8(0), math.Float64bits(math.Inf(1)))
	f.Add([]byte{}, uint8(2), uint8(2), math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, data []byte, cx, cy uint8, boundBits uint64) {
		cards := [2]int{int(cx % 8), int(cy % 8)}
		var sets [2]vectorset.Flat
		for s, card := range cards {
			sets[s] = vectorset.Flat{Card: card, Dim: dim, Data: make([]float64, card*dim)}
			for i := range sets[s].Data {
				if len(data) >= 8 {
					sets[s].Data[i] = fuzzCoord(data)
					data = data[8:]
				}
			}
		}
		var ws Workspace
		checkWithin(t, &ws, sets[0], sets[1], make([]float64, dim), math.Float64frombits(boundBits))
	})
}

// BenchmarkMatchingWithin prices the kernel's three exits at the
// served shape (3–7 covers, 6-d): pruned on the running row-minima sum
// (what ≈ 95 % of a k-nn query's candidates cost), a survivor that pays
// both bounds and the solve, and the unbounded call of the first k
// candidates and of MatchingDistanceFlat. One query cycles over 1 024
// candidates, as a refinement loop does: a kernel timed on one repeated
// pair lets the branch predictor learn the pair.
func BenchmarkMatchingWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	const d, n = 6, 1024
	x := vectorset.FlatFromRows(randRows(rng, 7, d))
	ys := make([]vectorset.Flat, n)
	dists := make([]float64, n)
	omega := make([]float64, d)
	var ws Workspace
	for i := range ys {
		ys[i] = vectorset.FlatFromRows(randRows(rng, 3+rng.Intn(5), d))
		dists[i] = ws.MatchingDistanceFlat(x, ys[i], omega)
	}
	for _, bc := range []struct {
		name  string
		scale float64 // bound = scale × the pair's distance
	}{
		{"pruned", 0.5},
		{"survivor", 1},
		{"unbounded", math.Inf(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			solved := 0
			for i := 0; i < b.N; i++ {
				if _, within := ws.MatchingDistanceFlatWithin(x, ys[i%n], omega, bc.scale*dists[i%n]); within {
					solved++
				}
			}
			b.ReportMetric(float64(solved)/float64(b.N), "solves/op")
		})
	}
}
