package vectorset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// orderCorpora are centroid columns of n rows that stress the block
// order: continuous values, tight clusters (long runs of near-equal
// coordinates), an exact lattice drawn with replacement (exact ties on
// every axis, duplicate rows), and the continuous values with NaN and ±Inf
// coordinates sprinkled in.
func orderCorpora(n, dim int) map[string][]float64 {
	rng := rand.New(rand.NewSource(int64(n)*7 + int64(dim)))
	random := make([]float64, n*dim)
	for i := range random {
		random[i] = rng.NormFloat64() * 5
	}
	clustered := make([]float64, n*dim)
	centers := make([]float64, 8*dim)
	for i := range centers {
		centers[i] = rng.NormFloat64() * 20
	}
	for i := 0; i < n; i++ {
		c := rng.Intn(8)
		for j := 0; j < dim; j++ {
			clustered[i*dim+j] = centers[c*dim+j] + rng.NormFloat64()*0.01
		}
	}
	lattice := make([]float64, n*dim)
	for i := range lattice {
		lattice[i] = float64(rng.Intn(3)) / 4
	}
	nonFinite := slices.Clone(random)
	for i := range nonFinite {
		switch rng.Intn(20) {
		case 0:
			nonFinite[i] = math.NaN()
		case 1:
			nonFinite[i] = math.Inf(1)
		case 2:
			nonFinite[i] = math.Inf(-1)
		}
	}
	return map[string][]float64{"random": random, "clustered": clustered, "lattice": lattice, "nonfinite": nonFinite}
}

// distinctIDs returns n distinct ids in no particular order.
func distinctIDs(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	ids := make([]uint64, 0, n)
	for len(ids) < n {
		id := uint64(rng.Int63n(4 * int64(n+1)))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// permuted returns the rows (ids, cents) taken in the order perm.
func permuted(ids []uint64, cents []float64, dim int, perm []int) ([]uint64, []float64) {
	pIDs, pCents := make([]uint64, 0, len(perm)), make([]float64, 0, len(perm)*dim)
	for _, i := range perm {
		pIDs = append(pIDs, ids[i])
		pCents = append(pCents, cents[i*dim:(i+1)*dim]...)
	}
	return pIDs, pCents
}

// TestBlockOrderCanonical: the block order depends only on the set of
// rows — a shuffled input yields the same id sequence, so ordering an
// ordered column is the identity — and every block's box holds its
// members' non-NaN coordinates, with no NaN in any box.
func TestBlockOrderCanonical(t *testing.T) {
	for _, dim := range []int{6, 3} {
		for _, n := range []int{0, 1, BlockLen - 1, BlockLen, BlockLen + 1, 10_000} {
			for name, cents := range orderCorpora(n, dim) {
				ctx := fmt.Sprintf("dim=%d n=%d %s", dim, n, name)
				rng := rand.New(rand.NewSource(int64(n + dim)))
				ids := distinctIDs(rng, n)
				perm := BlockOrder(ids, cents, dim)
				sorted := slices.Clone(perm)
				slices.Sort(sorted)
				if !slices.Equal(sorted, identity(n)) {
					t.Fatalf("%s: BlockOrder is not a permutation of %d rows", ctx, n)
				}
				oIDs, oCents := permuted(ids, cents, dim, perm)

				sIDs, sCents := permuted(ids, cents, dim, rng.Perm(n))
				if got, _ := permuted(sIDs, sCents, dim, BlockOrder(sIDs, sCents, dim)); !slices.Equal(got, oIDs) {
					t.Fatalf("%s: a shuffled input orders differently", ctx)
				}
				if again := BlockOrder(oIDs, oCents, dim); !slices.Equal(again, identity(n)) {
					t.Fatalf("%s: ordering an ordered column moves rows", ctx)
				}

				box := BlockBoxes(oCents, dim)
				if want := 2 * dim * ((n + BlockLen - 1) / BlockLen); len(box) != want {
					t.Fatalf("%s: %d box values, want %d", ctx, len(box), want)
				}
				for s := 0; s < n; s++ {
					b := s / BlockLen
					lo, hi := box[2*b*dim:(2*b+1)*dim], box[(2*b+1)*dim:(2*b+2)*dim]
					for j, v := range oCents[s*dim : (s+1)*dim] {
						if lo[j] != lo[j] || hi[j] != hi[j] {
							t.Fatalf("%s: block %d's box is NaN on axis %d", ctx, b, j)
						}
						if v == v && (v < lo[j] || v > hi[j]) {
							t.Fatalf("%s: position %d's %v lies outside block %d's [%v, %v] on axis %d", ctx, s, v, b, lo[j], hi[j], j)
						}
					}
				}
			}
		}
	}
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// BenchmarkBlockOrder prices what the snapshot writer's Finish and every
// heap base (compaction, bulk insert) spend ordering a base: 10 k and
// 100 k centroids of parts stored as 8 jittered copies each, the served
// corpus's shape, in id order.
func BenchmarkBlockOrder(b *testing.B) {
	const K, D = 7, 6
	for _, size := range []struct {
		name  string
		parts int
	}{{"10k", 1250}, {"100k", 12500}} {
		rng := rand.New(rand.NewSource(11))
		omega := make([]float64, D)
		var cents []float64
		for p := 0; p < size.parts; p++ {
			part := make([]float64, (1+rng.Intn(K))*D)
			for i := range part {
				part[i] = rng.NormFloat64() * 5
			}
			for c := 0; c < 8; c++ {
				f := Flat{Data: make([]float64, len(part)), Card: len(part) / D, Dim: D}
				for i, x := range part {
					f.Data[i] = x + rng.NormFloat64()*0.5
				}
				cents = append(cents, f.Centroid(K, omega)...)
			}
		}
		ids := make([]uint64, len(cents)/D)
		for i := range ids {
			ids[i] = uint64(i)
		}
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if perm := BlockOrder(ids, cents, D); len(perm) != len(ids) {
					b.Fatalf("%d positions", len(perm))
				}
			}
		})
	}
}
