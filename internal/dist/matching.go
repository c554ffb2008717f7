package dist

import "math"

// WeightFunc assigns the penalty w(x) > 0 paid for leaving the vector x of
// the larger set unmatched (paper Definition 6).
type WeightFunc func(x []float64) float64

// WeightNormTo returns the weight function w_ω(x) = ‖x − ω‖₂ of
// Definition 7. With ω outside the vector domain, the minimal matching
// distance built on the Euclidean ground distance is a metric (Lemma 1),
// and the extended centroid built with the same ω yields a lower bound
// (Lemma 2).
func WeightNormTo(omega []float64) WeightFunc {
	return func(x []float64) float64 {
		// L2 accumulates in the same index order as the historical inline
		// loop, so the weight values are bit-identical — and shared with
		// the specialized flat kernel (flat.go), which computes them as
		// L2(x, ω) too.
		return L2(x, omega)
	}
}

// WeightNorm is w_0(x) = ‖x‖₂, the paper's choice ω = 0 ("it has the
// shortest average distance within the position and has no volume").
func WeightNorm(x []float64) float64 { return Norm2(x) }

// WeightNormSquared is ‖x‖₂²; combined with the squared Euclidean ground
// distance it makes the matching distance equal the squared minimum
// Euclidean distance under permutation (paper §4.2).
func WeightNormSquared(x []float64) float64 { return Norm2Squared(x) }

// Matching is the result of a minimal matching distance computation
// between vector sets X and Y.
type Matching struct {
	// Distance is dist_mm(X, Y): the matched ground distances plus the
	// weights of unmatched elements of the larger set.
	Distance float64
	// XtoY[i] is the index of the Y element matched with X[i], or -1 if
	// X[i] is unmatched (possible only when |X| > |Y|).
	XtoY []int
	// YtoX[j] is the index of the X element matched with Y[j], or -1 if
	// Y[j] is unmatched (possible only when |Y| > |X|).
	YtoX []int
}

// Proper reports whether the minimum weight matching required a "proper
// permutation": some matched pair joins elements of different rank, i.e.
// the optimal matching is not the identity alignment of the two
// sequences. This is the statistic of paper Table 1.
func (m Matching) Proper() bool {
	for i, j := range m.XtoY {
		if j >= 0 && j != i {
			return true
		}
	}
	return false
}

// MinimalMatching computes the minimal matching distance dist_mm between
// the vector sets X and Y (Definition 6) with the given ground distance
// and weight function, using the Kuhn-Munkres algorithm on the cost matrix
// padded with unmatched-element weights. Worst-case O(k³) for k =
// max(|X|, |Y|).
//
// Either set may be empty: the distance degenerates to the total weight of
// the other set.
func MinimalMatching(x, y [][]float64, ground Func, weight WeightFunc) Matching {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	return ws.MinimalMatching(x, y, ground, weight)
}

// MatchingDistance returns only the distance value of the minimal
// matching. It runs on a pooled workspace and is allocation-free in
// steady state — the form every query hot path (refinement, OPTICS rows,
// invariance loops) should use when it does not hold its own Workspace.
func MatchingDistance(x, y [][]float64, ground Func, weight WeightFunc) float64 {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	return ws.MatchingDistance(x, y, ground, weight)
}

// MinEuclideanPerm computes the minimum Euclidean distance under
// permutation (Definition 4) between two cover sequences represented as
// vector sets: the matching distance with squared Euclidean ground
// distance and squared-norm weights, square-rooted to restore the metric
// character (paper §4.2).
func MinEuclideanPerm(x, y [][]float64) float64 {
	return math.Sqrt(MatchingDistance(x, y, L2Squared, WeightNormSquared))
}

// MinEuclideanPermBrute computes Definition 4 literally: both sets are
// padded with zero "dummy covers" to equal cardinality k and all k!
// alignments are enumerated. Exponential; for tests and for demonstrating
// the cost the paper's vector set model avoids.
func MinEuclideanPermBrute(x, y [][]float64) float64 {
	k := len(x)
	if len(y) > k {
		k = len(y)
	}
	if k == 0 {
		return 0
	}
	d := 0
	if len(x) > 0 {
		d = len(x[0])
	} else {
		d = len(y[0])
	}
	zero := make([]float64, d)
	xp := padTo(x, k, zero)
	yp := padTo(y, k, zero)

	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	permute(perm, 0, func(p []int) {
		sum := 0.0
		for i := 0; i < k; i++ {
			sum += L2Squared(xp[p[i]], yp[i])
		}
		if sum < best {
			best = sum
		}
	})
	return math.Sqrt(best)
}

// matchingBrute enumerates all matchings to validate MinimalMatching on
// small sets.
func matchingBrute(x, y [][]float64, ground Func, weight WeightFunc) float64 {
	if len(x) < len(y) {
		x, y = y, x
	}
	m, n := len(x), len(y)
	if m == 0 {
		return 0
	}
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	permute(perm, 0, func(p []int) {
		// x[p[i]] pairs with y[i] for i < n; the rest are unmatched.
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += ground(x[p[i]], y[i])
		}
		for i := n; i < m; i++ {
			sum += weight(x[p[i]])
		}
		if sum < best {
			best = sum
		}
	})
	return best
}

func padTo(v [][]float64, k int, zero []float64) [][]float64 {
	out := append([][]float64(nil), v...)
	for len(out) < k {
		out = append(out, zero)
	}
	return out
}

func permute(p []int, i int, visit func([]int)) {
	if i == len(p) {
		visit(p)
		return
	}
	for j := i; j < len(p); j++ {
		p[i], p[j] = p[j], p[i]
		permute(p, i+1, visit)
		p[i], p[j] = p[j], p[i]
	}
}
