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
// held against a threshold (SignatureExceeds). The engines test it in
// integers: a query is quantized into a block's code space once
// (Quantize), and each stored object then costs one integer Σ|q−c| per
// axis, with an early exit once the partial bound passes the threshold
// (Exceeds). Bound, the float form over decoded values, is the reference
// the tests hold the integer form to.

import (
	"math"

	"github.com/voxset/voxset/internal/vectorset"
)

// Signature is a vector set's exact sorted per-axis projection: each
// axis's coordinates, padded to K with ω's component and sorted
// ascending, axis j at V[j·K : (j+1)·K].
type Signature struct {
	K, Dim int
	V      []float64
}

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
// a filter index keeps one per block of its centroid layout, a vsdb delta
// entry one of its own. Per axis the block holds lo (the
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
// it below the exact signature bound. A constant axis (step = 0, which
// happens only where every value is lo) decodes exactly; its margin is
// only the rounding term.
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
		if step == 0 && hi > lo {
			// The range underflowed the division: give it the least step
			// there is, so that step 0 means a constant axis exactly.
			step = math.SmallestNonzeroFloat64
		}
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
// and the block's t-th object in floating point, over decoded values — the
// reference form of Exceeds: each S_j over the decoded values, lowered
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

// QuantizedSignature is an exact query signature quantized into one
// SignatureCodes block's code space, the query side of Exceeds. Its
// buffers are reused by the next Quantize into it.
type QuantizedSignature struct {
	// codes holds axis j at codes[j·K : (j+1)·K], in the signature's
	// sorted order.
	codes []int32
	// axis[2j:2j+2] = scale, offset: S_j ≥ max(scale·Σ_i|q_i−c_i| +
	// offset, 0) for every object of the block.
	axis []float64
	// prune is false when the block or the query holds a non-finite
	// value: such a pair never prunes.
	prune bool
}

// Quantize quantizes the exact query signature q (same K and dimension as
// the block) into the block's code space, into qq.
//
// Codes. A query value u gets qc = round(t̃), t̃ the computed (u−lo)/step
// (as (u−lo)·(1/step): three roundings, within 2⁻⁵¹ of the real quotient
// relative), clamped to the stored codes' range [0, 65534], so that no
// sum of K of them can overflow an int32 however far u lies outside the
// block. The part of u beyond the range is not lost: with D(c) = lo +
// c·step and u above D(65534), |u − D(c)| = (u − D(65534)) + step·|qc − c|
// for every stored code c (below D(0) likewise), so that distance goes
// into the axis's offset, lowered by its rounding (2⁻⁴⁹ of the magnitudes
// involved), instead of into the codes.
//
// Margin. On an axis with step > 0, a stored value v has code c with
// |v − D(c)| ≤ step·(½ + 2⁻³⁰) in real arithmetic (see EncodeSignatures);
// a query value inside the range, |u − D(qc)| ≤ step·(½ + 2⁻³⁵). So for
// each of the K pairs |u_i − v_i| ≥ step·|qc_i − c_i| + over_i −
// step·(1 + 2⁻²⁹), and over an axis S_j ≥ step·Σ|qc_i − c_i| + Σ over_i −
// K·step·(1 + 2⁻²⁰). Exceeds evaluates that with two multiplies and an
// add, each rounding within 2⁻⁵³, and the exact float bound's S_j sums K
// rounded terms: the scale and the over sum carry the block's rel
// (2K + 2·Dim + 16 ulps below 1), the margin is rounded up by 2⁻⁵⁰ and
// given an absolute 2⁻¹⁰⁰⁰ per value for subnormal steps, and the result
// stays at or below the S_j that the float bound over the two exact
// signatures computes. A constant axis (step = 0: every stored value is
// lo) contributes its exact Σ|u_i − lo|, lowered by rel, the same way.
func (c *SignatureCodes) Quantize(q *Signature, qq *QuantizedSignature) {
	k, d := c.k, c.dim
	qq.prune = false
	if c.axis == nil {
		return
	}
	if cap(qq.codes) < k*d {
		qq.codes = make([]int32, k*d)
	}
	if cap(qq.axis) < 2*d {
		qq.axis = make([]float64, 2*d)
	}
	qq.codes, qq.axis = qq.codes[:k*d], qq.axis[:2*d]
	for j := 0; j < d; j++ {
		lo, step := c.axis[3*j], c.axis[3*j+1]
		qa, out := q.V[j*k:(j+1)*k], qq.codes[j*k:(j+1)*k]
		if step == 0 {
			s := 0.0
			for i, v := range qa {
				s += math.Abs(v - lo)
				out[i] = 0
			}
			if !(s < math.Inf(1)) {
				return // a NaN or ±Inf query value: never prune
			}
			qq.axis[2*j], qq.axis[2*j+1] = 0, s*c.rel
			continue
		}
		inv, top := 1/step, lo+sigLevels*step
		over := 0.0 // Σ of the query values' distances beyond [lo, top]
		for i, v := range qa {
			if v-v != 0 {
				return // a NaN or ±Inf query value: never prune
			}
			t := (v - lo) * inv
			if inv > math.MaxFloat64 { // a step below 2⁻¹⁰²⁴: divide, as 0·∞ is NaN
				t = (v - lo) / step
			}
			e := 0.0
			switch {
			case t > sigLevels:
				t, e = sigLevels, v-top
			case t < 0:
				t, e = 0, lo-v
			}
			if e > 0 {
				over += max(e-0x1p-49*(math.Abs(v)+math.Abs(lo)+math.Abs(top)), 0)
			}
			out[i] = int32(math.RoundToEven(t))
		}
		margin := float64(k) * (step*(1+0x1p-20) + 0x1p-1000) * (1 + 0x1p-50)
		qq.axis[2*j], qq.axis[2*j+1] = step*c.rel, over*c.rel-margin
	}
	qq.prune = true
}

// Exceeds reports whether the signature bound between the quantized
// query qq (Quantize of this block) and the block's t-th object proves
// the object farther than threshold. It is one-sided: it never prunes
// where the float signature bound between the two exact signatures is at
// most threshold, because every partial sum it tests lies at or below
// that bound's (see Quantize). A NaN or +Inf threshold, and a query or
// block holding a non-finite value, prune nothing.
func (c *SignatureCodes) Exceeds(qq *QuantizedSignature, t int, threshold float64) bool {
	if !qq.prune || !(threshold < math.Inf(1)) {
		return false
	}
	k, d := c.k, c.dim
	codes := c.codes[t*k*d : (t+1)*k*d]
	qc, ax := qq.codes[:len(codes)], qq.axis[:2*d]
	lim := threshold * threshold
	tot := 0.0
	for j := 0; j < d; j++ {
		// Every code is in [0, 65534]: K differences fit an int.
		s := 0
		if k == 7 { // the served cover count, unrolled
			cc, qa := codes[j*7:j*7+7:j*7+7], qc[j*7:j*7+7:j*7+7]
			s = int(absDiff(qa[0], cc[0]) + absDiff(qa[1], cc[1]) + absDiff(qa[2], cc[2]) +
				absDiff(qa[3], cc[3]) + absDiff(qa[4], cc[4]) + absDiff(qa[5], cc[5]) + absDiff(qa[6], cc[6]))
		} else {
			for i := j * k; i < (j+1)*k; i++ {
				s += int(absDiff(qc[i], codes[i]))
			}
		}
		x := float64(s)*ax[2*j] + ax[2*j+1]
		if x < 0 { // a NaN stays NaN, and a NaN sum prunes nothing
			x = 0
		}
		tot += x * x
		// The partial root only grows with the axes still to come.
		if tot > lim && SignatureExceeds(sigLower(math.Sqrt(tot), k, d), threshold) {
			return true
		}
	}
	return false
}

// absDiff is |q − c| without a branch.
func absDiff(q int32, c uint16) int32 {
	e := q - int32(c)
	m := e >> 31
	return (e ^ m) - m
}
