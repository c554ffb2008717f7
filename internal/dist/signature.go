package dist

// The sorted per-axis projection bound (DESIGN.md §6): the second exact
// filter stage, between Lemma 2's centroid bound and the matching kernel.
//
// Pad X and Y to K = MaxCard vectors with ω. Under the w_ω weights the
// padding is free — an ω–ω pair costs ‖ω−ω‖ = 0 and an x–ω pair costs
// exactly the unmatched weight ‖x−ω‖ — so dist_mm(X, Y) is at least the
// cheapest perfect matching π of the two padded K-sets. For each axis j let
// x̂_j and ŷ_j be the padded sets' j-th coordinates sorted ascending, and
//
//	S_j = Σ_i |x̂_j[i] − ŷ_j[i]|.
//
// Then dist_mm(X, Y) ≥ √(Σ_j S_j²) ≥ K·‖C(X) − C(Y)‖₂:
//
//   - Σ_p ‖x_p − y_π(p)‖₂ ≥ ‖Σ_p |x_p − y_π(p)|‖₂ (the triangle inequality
//     on the componentwise absolute differences, whose norms are the
//     same), and component j of that sum is ≥ S_j, because sorted order is
//     the cheapest matching of two lists of reals under |·|;
//   - S_j ≥ |Σ_i x̂_j[i] − Σ_i ŷ_j[i]| = K·|C(X)_j − C(Y)_j|, so the bound
//     dominates Lemma 2 on every pair — strictly where two sets share a
//     centroid but not a spread.
//
// It costs K·Dim subtractions and one square root, no cost matrix. The
// query side is exact (Signature); the stored side is 16-bit codes
// (SignatureCodes), whose decode error the bound subtracts before it is
// held against a threshold (SignatureExceeds).

import (
	"math"
	"sync"

	"github.com/voxset/voxset/internal/vectorset"
)

// Signature is a vector set's exact sorted per-axis projection: each
// axis's coordinates, padded to K with ω's component and sorted
// ascending, axis j at V[j·K : (j+1)·K].
type Signature struct {
	K, Dim int
	V      []float64
}

var sigPool = sync.Pool{New: func() any { return new(Signature) }}

// GetSignature returns the signature of x padded to k with omega, in
// pooled scratch; return it with PutSignature.
func GetSignature(x vectorset.Flat, k int, omega []float64) *Signature {
	s := sigPool.Get().(*Signature)
	s.Reset(x, k, omega)
	return s
}

// PutSignature returns a signature to the pool; s is dead afterwards.
func PutSignature(s *Signature) { sigPool.Put(s) }

// Reset makes s the signature of x padded to k with omega, reusing s's
// buffer. x's cardinality must not exceed k.
func (s *Signature) Reset(x vectorset.Flat, k int, omega []float64) {
	d := len(omega)
	if x.Card > k || (x.Card > 0 && x.Dim != d) {
		panic("dist: signature of a set beyond K or of another dimension than ω")
	}
	if cap(s.V) < k*d {
		s.V = make([]float64, k*d)
	}
	s.K, s.Dim, s.V = k, d, s.V[:k*d]
	for j := 0; j < d; j++ {
		a := s.V[j*k : (j+1)*k]
		for i := 0; i < x.Card; i++ {
			a[i] = x.Data[i*d+j]
		}
		for i := x.Card; i < k; i++ {
			a[i] = omega[j]
		}
		// Insertion sort: K is a handful of values.
		for i := 1; i < k; i++ {
			for m := i; m > 0 && a[m] < a[m-1]; m-- {
				a[m], a[m-1] = a[m-1], a[m]
			}
		}
	}
}

// sigLower lowers a computed root √(Σ S_j²) by its rounding allowance
// before it is returned as a bound. An exact root is at most the minimal
// matching distance, but the computed one carries rounding: the |a−b| and
// the sums of K terms, the squares and the root of Dim terms, each within
// (K + Dim + 3)·2⁻⁵³ relative. The computed distance it is compared with
// sums K cells of Dim squared differences the same way, so the two can
// cross by about twice that; the relative slack is twice that again. All
// terms are non-negative differences of the stored floats, so the error
// is relative — unlike the centroid bound's, there is no cancellation
// between two rounded means — except where squares fall below 2⁻¹⁰²² and
// round absolutely: that moves a root by at most √Dim·2⁻⁵³⁷ and a cell
// sum by K times that, which the absolute term covers. The result is
// clamped at 0 (a NaN stays NaN).
func sigLower(root float64, k, d int) float64 {
	return max(root*(1-float64(4*(k+d)+32)*0x1p-53)-float64(k+d)*0x1p-530, 0)
}

// SignatureExceeds reports whether a signature bound proves its object
// farther than threshold (the current k-th distance, ε). Like
// vectorset.BoundExceeds it is one-sided — strictly greater, with the
// rounding allowance inside the bound — so a tie at the k-th place or at
// ε is never pruned. A NaN or +Inf bound (a non-finite coordinate, an
// overflow) and a NaN or +Inf threshold prune nothing.
func SignatureExceeds(bound, threshold float64) bool {
	return bound < math.Inf(1) && bound > threshold
}

// sigLevels is the largest 16-bit code: a value v of an axis spanning
// [lo, hi] is stored as round((v−lo)/step) with step = (hi−lo)/sigLevels.
const sigLevels = 65534

// SignatureCodes is a block of signatures stored in 16 bits per value —
// a filter index keeps one per chunk of consecutive base positions, a
// vsdb delta entry one of its own. Per axis the block holds lo (the
// minimum over the block's values and ω), step and the decode margin.
type SignatureCodes struct {
	k, dim int
	// axis[3j:3j+3] = lo, step, margin of axis j. nil when the block holds
	// a non-finite value or its range overflows: such a block never prunes.
	axis []float64
	// codes holds object t's axis j at codes[(t·dim+j)·k : +k], sorted
	// ascending like the signature it encodes.
	codes []uint16
	// rel = 1 − (2K+2·Dim+16)·2⁻⁵² lowers every per-axis sum by its
	// rounding (K non-negative terms) before the margin is taken off, with
	// room to spare so the encoded bound also stays below the computed
	// exact one (see Bound).
	rel float64
}

// EncodeSignatures encodes the signatures of sets — padded to k with
// omega — into one block. A set must not exceed k vectors.
//
// Decode error. A value v is stored as c = round(t̃), t̃ the computed
// (v−lo)/step, and decoded as lo + c·step. In real arithmetic t̃ is
// within 65535·2⁻⁵² of t = (v−lo)/step, so |v − (lo + c·step)| ≤
// step·(½ + 2⁻³⁰); the decode's multiply and add round within
// 2⁻⁵²·(|lo|+|hi|). So e = step·(½ + 2⁻³⁰) + 2⁻⁵¹·(|lo|+|hi|) bounds
// the sum of both per value, and as a padded axis has K values, an axis
// sum over decoded values is within K·e of the same sum over the stored
// ones. The block stores K·e, rounded up by 2⁻⁵⁰ relative, as the axis
// margin; Bound subtracts it from each S_j and clamps at 0, which keeps
// it below the exact signature bound. A constant axis (step = 0) decodes
// exactly; its margin is only the rounding term.
func EncodeSignatures(sets []vectorset.Flat, k int, omega []float64) *SignatureCodes {
	d := len(omega)
	c := &SignatureCodes{
		k:     k,
		dim:   d,
		codes: make([]uint16, len(sets)*k*d),
		rel:   1 - float64(2*k+2*d+16)*0x1p-52,
	}
	axis := make([]float64, 3*d)
	finite := true
	for j := 0; j < d; j++ {
		lo, hi := omega[j], omega[j]
		for _, x := range sets {
			for i := 0; i < x.Card; i++ {
				v := x.Data[i*d+j]
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		step := (hi - lo) / sigLevels
		margin := float64(k) * (step*(0.5+0x1p-30) + 0x1p-51*(math.Abs(lo)+math.Abs(hi))) * (1 + 0x1p-50)
		// min/max propagate a NaN; an infinite value or an overflowing
		// range leaves step or margin infinite.
		finite = finite && !math.IsNaN(lo+hi) && !math.IsInf(step+margin, 0)
		axis[3*j], axis[3*j+1], axis[3*j+2] = lo, step, margin
	}
	if !finite {
		return c // axis == nil: the block never prunes
	}
	c.axis = axis
	var sig Signature
	for t, x := range sets {
		sig.Reset(x, k, omega)
		out := c.codes[t*k*d : (t+1)*k*d]
		for j := 0; j < d; j++ {
			lo, step := axis[3*j], axis[3*j+1]
			if step == 0 {
				continue // every value is lo: code 0 decodes it exactly
			}
			for i, v := range sig.V[j*k : (j+1)*k] {
				out[j*k+i] = uint16(min(max(math.Round((v-lo)/step), 0), sigLevels))
			}
		}
	}
	return c
}

// Bound returns the signature bound between the exact query signature q
// and the block's t-th object: each S_j over the decoded values, lowered
// by its rounding (rel) and by the decode margin, clamped at 0, then
// √(Σ S_j²) lowered by its rounding allowance (sigLower). It never
// exceeds the exact signature bound of the two sets, hence never the
// computed matching distance. A nil block or one holding a non-finite value returns NaN,
// which SignatureExceeds never prunes on.
func (c *SignatureCodes) Bound(q *Signature, t int) float64 {
	if c == nil || c.axis == nil {
		return math.NaN()
	}
	k, d := c.k, c.dim
	codes := c.codes[t*k*d : (t+1)*k*d]
	tot := 0.0
	for j := 0; j < d; j++ {
		lo, step, margin := c.axis[3*j], c.axis[3*j+1], c.axis[3*j+2]
		qa, ca := q.V[j*k:(j+1)*k], codes[j*k:(j+1)*k]
		// Two running sums halve the add chain; each still adds
		// non-negative terms, which is all the rounding argument needs.
		s0, s1 := 0.0, 0.0
		i := 0
		for ; i+1 < len(ca); i += 2 {
			s0 += math.Abs(qa[i] - (lo + float64(ca[i])*step))
			s1 += math.Abs(qa[i+1] - (lo + float64(ca[i+1])*step))
		}
		if i < len(ca) {
			s0 += math.Abs(qa[i] - (lo + float64(ca[i])*step))
		}
		// max keeps a NaN from a non-finite query coordinate.
		s := max((s0+s1)*c.rel-margin, 0)
		tot += s * s
	}
	return sigLower(math.Sqrt(tot), k, d)
}
