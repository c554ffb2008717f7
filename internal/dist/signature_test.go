package dist

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/vectorset"
)

// signatureBound is the reference the encoded bound is held to: √(Σ_j
// S_j²) between two exact signatures of the same K and dimension, lowered
// by the same rounding allowance (sigLower). It never exceeds the
// computed MatchingDistanceFlat of the two sets.
func signatureBound(a, b *Signature) float64 {
	k := a.K
	tot := 0.0
	for j := 0; j < a.Dim; j++ {
		x, y := a.V[j*k:(j+1)*k], b.V[j*k:(j+1)*k]
		s := 0.0
		for i, v := range x {
			s += math.Abs(v - y[i])
		}
		tot += s * s
	}
	return sigLower(math.Sqrt(tot), k, a.Dim)
}

// checkSignatureChain holds the signature stage to its contract for one
// query x against one stored set y, encoded inside a block with others
// (which widen the block's range, as a filter chunk does): the encoded
// bound ≤ the exact signature bound ≤ the computed MatchingDistanceFlat,
// and the stage never prunes at a threshold equal to the distance. It
// returns the exact bound, the encoded bound and the distance.
func checkSignatureChain(t *testing.T, ws *Workspace, x, y vectorset.Flat, others []vectorset.Flat, k int, omega []float64) (exact, encoded, d float64) {
	t.Helper()
	qs, ys := GetSignature(x, k, omega), GetSignature(y, k, omega)
	defer PutSignature(qs)
	defer PutSignature(ys)
	block := append([]vectorset.Flat{y}, others...)
	codes := EncodeSignatures(block, k, omega)
	exact, encoded = signatureBound(qs, ys), codes.Bound(qs, 0)
	d = ws.MatchingDistanceFlat(x, y, omega)
	switch {
	case !(encoded <= exact):
		t.Fatalf("|x|=%d |y|=%d K=%d: encoded bound %v > exact bound %v", x.Card, y.Card, k, encoded, exact)
	case !(exact <= d):
		t.Fatalf("|x|=%d |y|=%d K=%d: exact signature bound %v > distance %v", x.Card, y.Card, k, exact, d)
	case SignatureExceeds(encoded, d) || SignatureExceeds(exact, d):
		t.Fatalf("|x|=%d |y|=%d K=%d: pruned at a threshold equal to the distance %v", x.Card, y.Card, k, d)
	}
	return exact, encoded, d
}

// TestSignatureBoundRandom runs the chain over random pairs of every
// cardinality mix 0..K, both sides of a mismatch, zero and random ω, and
// checks that the bound dominates Lemma 2 and actually cuts: a bound of
// zero satisfies the chain vacuously.
func TestSignatureBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var ws Workspace
	tighter := 0
	for _, dim := range []int{3, 6} {
		for _, k := range []int{7, 8} {
			for trial := 0; trial < 300; trial++ {
				x := flatOf(randRows(rng, rng.Intn(k+1), dim), dim)
				y := flatOf(randRows(rng, rng.Intn(k+1), dim), dim)
				others := []vectorset.Flat{flatOf(randRows(rng, 1+rng.Intn(k), dim), dim)}
				omega := make([]float64, dim)
				if trial%2 == 1 {
					for i := range omega {
						omega[i] = rng.NormFloat64() * 5
					}
				}
				exact, encoded, _ := checkSignatureChain(t, &ws, x, y, others, k, omega)
				lemma2 := CentroidLowerBoundFlat(x.Centroid(k, omega), y.Centroid(k, omega), k)
				if exact < lemma2*(1-1e-12) {
					t.Fatalf("K=%d: signature bound %v below Lemma 2's %v", k, exact, lemma2)
				}
				if encoded > lemma2*(1+1e-9) {
					tighter++
				}
			}
		}
	}
	if tighter < 600 {
		t.Fatalf("the encoded bound beat Lemma 2 on %d of 1200 pairs", tighter)
	}
}

// TestSignatureBoundTies: integer lattice sets, where the bound of a
// card-1 pair equals its distance exactly and equal sets tie at 0, at
// K = 7 and 8, with constant axes; the stage must not prune any of them
// at a threshold equal to the distance.
func TestSignatureBoundTies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const dim = 6
	lattice := func(card int, constant bool) vectorset.Flat {
		rows := make([][]float64, card)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = float64(rng.Intn(5) - 2)
			}
			if constant {
				rows[i][2] = 1 // axis 2 is constant once ω_2 = 1 too
			}
		}
		return flatOf(rows, dim)
	}
	var ws Workspace
	equalBound := 0
	for _, k := range []int{7, 8} {
		for trial := 0; trial < 400; trial++ {
			constant := trial%3 == 0
			omega := make([]float64, dim)
			if constant {
				omega[2] = 1
			}
			cx, cy := 1+rng.Intn(k), 1+rng.Intn(k)
			if trial%4 == 0 {
				cx, cy = 1, 1
			}
			x, y := lattice(cx, constant), lattice(cy, constant)
			checkSignatureChain(t, &ws, x, y, nil, k, omega)
			checkSignatureChain(t, &ws, x, x, nil, k, omega)
			if exact, _, d := checkSignatureChain(t, &ws, x, y, []vectorset.Flat{lattice(k, constant)}, k, omega); exact >= d*(1-1e-12) {
				equalBound++
			}
		}
	}
	if equalBound == 0 {
		t.Fatal("no tied pair (bound = distance) was exercised")
	}
}

// TestSignatureNonFinite: a block holding a NaN or ±Inf coordinate, or
// an ω that is, never prunes, nor does a query carrying one; a constant
// axis decodes exactly.
func TestSignatureNonFinite(t *testing.T) {
	const k, dim = 7, 3
	omega := make([]float64, dim)
	q := GetSignature(flatOf([][]float64{{100, 100, 100}}, dim), k, omega)
	defer PutSignature(q)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		block := []vectorset.Flat{flatOf([][]float64{{0, 0, 0}}, dim), flatOf([][]float64{{1, bad, 2}}, dim)}
		codes := EncodeSignatures(block, k, omega)
		for i := range block {
			if b := codes.Bound(q, i); SignatureExceeds(b, 0) {
				t.Fatalf("block with %v: object %d pruned (bound %v)", bad, i, b)
			}
		}
		if b := EncodeSignatures(block[:1], k, []float64{0, bad, 0}).Bound(q, 0); SignatureExceeds(b, 0) {
			t.Fatalf("ω with %v: pruned (bound %v)", bad, b)
		}
		qbad := GetSignature(flatOf([][]float64{{1, bad, 2}}, dim), k, omega)
		if b := EncodeSignatures(block[:1], k, omega).Bound(qbad, 0); SignatureExceeds(b, 0) {
			t.Fatalf("query with %v: pruned (bound %v)", bad, b)
		}
		PutSignature(qbad)
	}
	var nilCodes *SignatureCodes
	if b := nilCodes.Bound(q, 0); SignatureExceeds(b, 0) {
		t.Fatalf("nil block pruned (bound %v)", b)
	}
	if SignatureExceeds(1, math.NaN()) || SignatureExceeds(1, math.Inf(1)) {
		t.Fatal("a NaN or +Inf threshold pruned")
	}
	// Every value of every axis equal (ω too): step 0, exact decode, so
	// the encoded bound is the exact one up to the slack alone.
	same := flatOf([][]float64{{3, 3, 3}, {3, 3, 3}}, dim)
	codes := EncodeSignatures([]vectorset.Flat{same}, 2, []float64{3, 3, 3})
	q2 := GetSignature(flatOf([][]float64{{4, 3, 1}}, dim), 2, []float64{3, 3, 3})
	defer PutSignature(q2)
	s2 := GetSignature(same, 2, []float64{3, 3, 3})
	defer PutSignature(s2)
	if got, want := codes.Bound(q2, 0), signatureBound(q2, s2); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("constant axes: encoded %v, exact %v", got, want)
	}
}

// sigFuzzCoord maps 8 raw bytes to a coordinate within ±1e6 (the
// non-finite ones are the engine's to reject before it, TestSignatureNonFinite
// pins what the stage does with them); every fourth one is snapped to a
// small integer, so lattice ties are common.
func sigFuzzCoord(b []byte, i int) float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if v != v || math.IsInf(v, 0) {
		return 0
	}
	if math.Abs(v) > 1e6 {
		v = math.Mod(v, 1e6)
	}
	if i%4 == 0 {
		v = math.Round(math.Mod(v, 3))
	}
	return v
}

// FuzzSignatureBound drives the chain encoded ≤ exact ≤ MatchingDistanceFlat
// from raw bytes: K, the two cardinalities (0…K, either side larger), ω,
// a third set sharing the block, and every coordinate are the fuzzer's; a
// flag makes axis 0 constant.
func FuzzSignatureBound(f *testing.F) {
	const dim = 3
	seed := make([]byte, 8*dim*24)
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(float64(i%5)-2))
	}
	f.Add(seed, uint8(7), uint8(3), uint8(5), uint8(2), false)
	f.Add(seed, uint8(8), uint8(1), uint8(1), uint8(0), true)
	f.Add(seed[:8*dim], uint8(7), uint8(0), uint8(7), uint8(7), false)
	f.Add([]byte{}, uint8(2), uint8(2), uint8(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, kb, cx, cy, cz uint8, constant bool) {
		k := 1 + int(kb%8)
		n := 0
		next := func() float64 {
			if len(data) < 8 {
				return 0
			}
			v := sigFuzzCoord(data, n)
			data, n = data[8:], n+1
			return v
		}
		omega := make([]float64, dim)
		for i := range omega {
			omega[i] = next()
		}
		var sets [3]vectorset.Flat
		for s, card := range []int{int(cx) % (k + 1), int(cy) % (k + 1), int(cz) % (k + 1)} {
			sets[s] = vectorset.Flat{Card: card, Dim: dim, Data: make([]float64, card*dim)}
			for i := range sets[s].Data {
				sets[s].Data[i] = next()
				if constant && i%dim == 0 {
					sets[s].Data[i] = omega[0]
				}
			}
		}
		var ws Workspace
		checkSignatureChain(t, &ws, sets[0], sets[1], sets[2:], k, omega)
		checkSignatureChain(t, &ws, sets[1], sets[0], sets[2:], k, omega)
	})
}

// BenchmarkSignatureBound prices the signature stage per candidate at the
// served shape (K = 7, 6-d, blocks of 64): one query against 1 024 stored
// candidates in turn — what a refinement loop does — beside
// BenchmarkMatchingWithin/pruned, the kernel exit it replaces for most of
// them.
func BenchmarkSignatureBound(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	const k, d, n, chunk = 7, 6, 1024, 64
	omega := make([]float64, d)
	q := GetSignature(vectorset.FlatFromRows(randRows(rng, 7, d)), k, omega)
	defer PutSignature(q)
	blocks := make([]*SignatureCodes, n/chunk)
	for c := range blocks {
		sets := make([]vectorset.Flat, chunk)
		for i := range sets {
			sets[i] = vectorset.FlatFromRows(randRows(rng, 3+rng.Intn(5), d))
		}
		blocks[c] = EncodeSignatures(sets, k, omega)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		c := i % n
		sum += blocks[c/chunk].Bound(q, c%chunk)
	}
	benchSinkFloat = sum
}

var benchSinkFloat float64
