// Flat matching kernels (DESIGN.md §10): the minimal matching distance
// specialized to the system's standard configuration — Euclidean ground
// distance and w_ω(x) = ‖x−ω‖₂ unmatched weights — over vector sets in
// the contiguous vectorset.Flat layout. The cost matrix is filled in one
// pass that streams both flat buffers straight into the pooled
// Workspace's Hungarian scratch: no per-cell function-pointer call, no
// per-row slice header loads, no allocation. Every cell is computed by
// the same unrolled L2 kernel the generic path uses, in the same order,
// so the result is bit-identical to
//
//	ws.MatchingDistance(x.Rows(), y.Rows(), L2, WeightNormTo(omega))
//
// — TestFlatMatchingParity pins that equality on randomized inputs.
//
// There is one kernel, and it takes the threshold its caller holds
// (MatchingDistanceFlatWithin): a refinement loop asks "is this candidate
// within the k-th distance (or ε)?", and an O(k²) assignment lower bound
// answers "no" for all but a few percent of the candidates before the
// O(k³) solve. MatchingDistanceFlat is the bound = +Inf case.
package dist

import (
	"math"

	"github.com/voxset/voxset/internal/vectorset"
)

// MatchingDistanceFlat computes dist_mm(X, Y) (Definition 6) for flat
// sets under the L2 ground distance and WeightNormTo(omega) weights,
// allocation-free. Both sets must share omega's dimension. It is the
// unbounded case of MatchingDistanceFlatWithin.
func (ws *Workspace) MatchingDistanceFlat(x, y vectorset.Flat, omega []float64) float64 {
	d, _ := ws.MatchingDistanceFlatWithin(x, y, omega, math.Inf(1))
	return d
}

// boundSlack widens the bound the two assignment lower bounds are held
// against. Each row minimum is ≤ that row's matched cell exactly, but the
// bounds sum up to MaxCard non-negative terms in row (or column) order
// while solve sums the matched cells in column order, and each sum
// carries up to (n−1)·2⁻⁵³ relative rounding error. With the slack,
// "lower bound > bound" implies "the distance solve would return > bound"
// for any realistic cardinality.
const boundSlack = 1 + 1e-12

// MatchingDistanceFlatWithin is MatchingDistanceFlat for a caller that
// will only keep the distance if it is at most bound (the current k-th
// distance, ε). within == false means dist_mm(X, Y) > bound was proven
// in O(k²) and no matching was run; d is then +Inf. Otherwise d is the
// distance, bit-identical to MatchingDistanceFlat's — which may still
// exceed bound: callers keep their own comparison. A +Inf or NaN bound
// never prunes.
//
// The padded cost matrix fills row by row. Every row is matched to
// exactly one column, so Σ row minima never exceeds the matching cost:
// the running sum stops the fill the moment it passes the bound. Every
// column of the padded square matrix is matched exactly once too, which
// gives Σ column minima as a second bound over the finished matrix.
// Only what survives both goes to solve.
func (ws *Workspace) MatchingDistanceFlatWithin(x, y vectorset.Flat, omega []float64, bound float64) (d float64, within bool) {
	if x.Card < y.Card {
		x, y = y, x
	}
	big, small, dim := x.Card, y.Card, x.Dim
	switch {
	case big == 0:
		return 0, true
	case small == 0:
		total := 0.0
		for i := 0; i < big; i++ {
			total += math.Sqrt(l2SquaredStride(x.Row(i), omega))
		}
		return total, true
	}
	limit := bound * boundSlack // no sum compares greater than +Inf or NaN
	rows := ws.growCost(big)
	sum := 0.0
	for i, row := range rows {
		xi := x.Data[i*dim : (i+1)*dim]
		// The row minimum goes through the branch-free min builtin: a
		// compare-and-branch mispredicts afresh on every new candidate
		// (+25 % on the unbounded call over varying pairs).
		lo := math.Inf(1)
		for j := 0; j < small; j++ {
			c := math.Sqrt(l2SquaredStride(xi, y.Data[j*dim:(j+1)*dim]))
			row[j] = c
			lo = min(lo, c)
		}
		if big > small {
			// Dummy columns charge the unmatched weight ‖x_i−ω‖₂.
			w := math.Sqrt(l2SquaredStride(xi, omega))
			for j := small; j < big; j++ {
				row[j] = w
			}
			lo = min(lo, w)
		}
		if sum += lo; sum > limit {
			return math.Inf(1), false
		}
	}
	if limit < math.Inf(1) && ws.columnMinima(rows) > limit {
		return math.Inf(1), false
	}
	return ws.solve(rows, big, big), true
}

// columnMinima returns Σ_j min_i cost[i][j] of a square cost matrix,
// in solver scratch that solve re-initializes.
func (ws *Workspace) columnMinima(rows [][]float64) float64 {
	ws.growSolve(len(rows))
	lo := ws.minv[:len(rows)]
	copy(lo, rows[0])
	for _, row := range rows[1:] {
		for j, c := range row {
			lo[j] = min(lo[j], c)
		}
	}
	sum := 0.0
	for _, c := range lo {
		sum += c
	}
	return sum
}

// CentroidLowerBoundFlat computes the Lemma 2 filter bound
// k·‖C(X)−C(q)‖₂ from two precomputed extended centroids, exactly like
// vectorset.CentroidLowerBound but through the unrolled kernel.
func CentroidLowerBoundFlat(cx, cy []float64, k int) float64 {
	checkLen(cx, cy)
	return float64(k) * math.Sqrt(l2SquaredStride(cx, cy))
}

// Floats returns an n-value scratch buffer owned by the workspace, for
// callers that stage kernel inputs — typically a vector-set record
// decoded with vectorset.DecodeFlatInto before a MatchingDistanceFlat
// call. The buffer is disjoint from the solver's own scratch, so it
// stays valid across matching calls on the same workspace; it is
// invalidated by the next Floats call.
func (ws *Workspace) Floats(n int) []float64 {
	if cap(ws.floats) < n {
		ws.floats = make([]float64, n)
	}
	return ws.floats[:n]
}
