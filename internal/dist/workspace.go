package dist

import (
	"fmt"
	"math"
	"sync"
)

// Workspace holds the scratch memory of the matching kernel: the flat
// row-major cost matrix and the Kuhn-Munkres potentials/path/min-value
// arrays, plus the min-cost-flow solver of the partial matcher. Every
// similarity operation in the system bottoms out in one of these solves
// (query refinement, OPTICS rows, invariance loops), and for the paper's
// k = 7 the per-call allocations dominate the O(k³) arithmetic — a
// Workspace makes one solve allocation-free and a recycled Workspace
// makes a whole query allocation-free.
//
// The zero value is ready to use; buffers grow on demand and are kept
// across calls. A Workspace is not safe for concurrent use: create one
// per goroutine, or borrow one from the shared pool with GetWorkspace /
// PutWorkspace.
type Workspace struct {
	cost []float64   // flat row-major cost matrix (matching paths)
	rows [][]float64 // row views into cost

	u, v []float64 // dual potentials (1-indexed)
	p    []int     // p[j] = row assigned to column j (0 = none)
	way  []int     // alternating-path predecessor per column
	minv []float64
	used []bool

	asg    []int        // row → column result scratch
	flow   *flowNetwork // lazily built solver for the partial matcher
	floats []float64    // caller-staged kernel inputs (Floats)
}

// wsPool recycles workspaces across the package-level convenience
// functions (Assign, MatchingDistance, …) and across concurrent queries. In
// steady state Get/Put allocate nothing.
var wsPool = sync.Pool{New: func() interface{} { return new(Workspace) }}

// GetWorkspace borrows a workspace from the shared pool. Return it with
// PutWorkspace when done; keeping it is also fine (it just leaves the
// pool).
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool. The caller must
// not use ws (or slices obtained from its methods) afterwards.
func PutWorkspace(ws *Workspace) { wsPool.Put(ws) }

// growSolve sizes the Hungarian scratch for m columns.
func (ws *Workspace) growSolve(m int) {
	if cap(ws.u) < m+1 {
		ws.u = make([]float64, m+1)
		ws.v = make([]float64, m+1)
		ws.p = make([]int, m+1)
		ws.way = make([]int, m+1)
		ws.minv = make([]float64, m+1)
		ws.used = make([]bool, m+1)
	}
}

// growCost sizes the flat cost matrix for an n×n solve and returns the
// row views.
func (ws *Workspace) growCost(n int) [][]float64 {
	if cap(ws.cost) < n*n {
		ws.cost = make([]float64, n*n)
	}
	if cap(ws.rows) < n {
		ws.rows = make([][]float64, n)
	}
	ws.cost = ws.cost[:n*n]
	ws.rows = ws.rows[:n]
	for i := 0; i < n; i++ {
		ws.rows[i] = ws.cost[i*n : (i+1)*n]
	}
	return ws.rows
}

func (ws *Workspace) growAsg(n int) []int {
	if cap(ws.asg) < n {
		ws.asg = make([]int, n)
	}
	return ws.asg[:n]
}

// solve runs the potentials Kuhn-Munkres algorithm on an n×m cost matrix
// (n ≤ m) and returns the minimal total. Afterwards ws.p[j] holds the
// 1-indexed row assigned to column j (0 = unassigned).
func (ws *Workspace) solve(cost [][]float64, n, m int) float64 {
	ws.growSolve(m)
	u, v, p, way := ws.u[:m+1], ws.v[:m+1], ws.p[:m+1], ws.way[:m+1]
	minv, used := ws.minv[:m+1], ws.used[:m+1]
	for j := range u {
		u[j], v[j] = 0, 0
		p[j], way[j] = 0, 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			row := cost[i0-1]
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		// Augment along the alternating path.
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	total := 0.0
	for j := 1; j <= m; j++ {
		if p[j] != 0 {
			total += cost[p[j]-1][j-1]
		}
	}
	return total
}

// checkAssign validates an assignment cost matrix and returns its shape.
func checkAssign(cost [][]float64) (n, m int, err error) {
	n = len(cost)
	if n == 0 {
		return 0, 0, nil
	}
	m = len(cost[0])
	if n > m {
		return 0, 0, fmt.Errorf("dist: Assign requires rows ≤ cols, got %d×%d", n, m)
	}
	for i, row := range cost {
		if len(row) != m {
			return 0, 0, fmt.Errorf("dist: ragged cost matrix: row %d has %d cols, want %d", i, len(row), m)
		}
	}
	return n, m, nil
}

// Assign solves the rectangular assignment problem like the package-level
// Assign, reusing the workspace. The returned slice is workspace scratch:
// it is valid until the next use of ws and must not be retained.
func (ws *Workspace) Assign(cost [][]float64) (rowToCol []int, total float64) {
	n, m, err := checkAssign(cost)
	if err != nil {
		panic(err.Error())
	}
	if n == 0 {
		return nil, 0
	}
	total = ws.solve(cost, n, m)
	asg := ws.growAsg(n)
	for j := 1; j <= m; j++ {
		if ws.p[j] != 0 {
			asg[ws.p[j]-1] = j - 1
		}
	}
	return asg, total
}

// MatchingDistance computes dist_mm(X, Y) (Definition 6) without
// allocating: the padded square cost matrix and all solver scratch live
// in the workspace.
func (ws *Workspace) MatchingDistance(x, y [][]float64, ground Func, weight WeightFunc) float64 {
	if len(x) < len(y) {
		x, y = y, x
	}
	big, small := len(x), len(y)
	switch {
	case big == 0:
		return 0
	case small == 0:
		total := 0.0
		for _, v := range x {
			total += weight(v)
		}
		return total
	}
	rows := ws.fillCost(x, y, ground, weight)
	return ws.solve(rows, big, big)
}

// fillCost builds the padded square matching cost matrix for |x| ≥ |y|
// in workspace memory: columns are y's elements followed by dummy columns
// charging the unmatched-element weight.
func (ws *Workspace) fillCost(x, y [][]float64, ground Func, weight WeightFunc) [][]float64 {
	big, small := len(x), len(y)
	rows := ws.growCost(big)
	for i := 0; i < big; i++ {
		row := rows[i]
		for j := 0; j < small; j++ {
			row[j] = ground(x[i], y[j])
		}
		if big > small {
			w := weight(x[i])
			for j := small; j < big; j++ {
				row[j] = w
			}
		}
	}
	return rows
}

// MinimalMatching computes the full minimal matching (distance plus the
// XtoY/YtoX correspondence) like the package-level MinimalMatching,
// reusing workspace scratch for the solve. The returned index slices are
// freshly allocated and owned by the caller.
func (ws *Workspace) MinimalMatching(x, y [][]float64, ground Func, weight WeightFunc) Matching {
	swapped := false
	if len(x) < len(y) {
		x, y = y, x
		swapped = true
	}
	m, n := len(x), len(y)
	res := Matching{
		XtoY: make([]int, m),
		YtoX: make([]int, n),
	}

	switch {
	case m == 0:
		// Both sets empty.
	case n == 0:
		for i := range x {
			res.Distance += weight(x[i])
			res.XtoY[i] = -1
		}
	default:
		rows := ws.fillCost(x, y, ground, weight)
		res.Distance = ws.solve(rows, m, m)
		for j := 1; j <= m; j++ {
			if ws.p[j] == 0 {
				continue
			}
			i := ws.p[j] - 1
			if j-1 < n {
				res.XtoY[i] = j - 1
				res.YtoX[j-1] = i
			} else {
				res.XtoY[i] = -1
			}
		}
	}

	if swapped {
		res.XtoY, res.YtoX = res.YtoX, res.XtoY
	}
	return res
}

// MinEuclideanPerm computes the minimum Euclidean distance under
// permutation (Definition 4) like the package-level MinEuclideanPerm,
// reusing workspace scratch.
func (ws *Workspace) MinEuclideanPerm(x, y [][]float64) float64 {
	return math.Sqrt(ws.MatchingDistance(x, y, L2Squared, WeightNormSquared))
}

// PartialMatching computes the partial similarity distance of paper §4.1
// like the package-level PartialMatching, reusing the workspace's
// min-cost-flow solver across calls.
func (ws *Workspace) PartialMatching(x, y [][]float64, ground Func, i int) float64 {
	maxPairs := len(x)
	if len(y) < maxPairs {
		maxPairs = len(y)
	}
	if i < 0 || i > maxPairs {
		panic(fmt.Sprintf("dist: partial matching size %d out of range [0,%d]", i, maxPairs))
	}
	if i == 0 {
		return 0
	}
	m, n := len(x), len(y)
	if ws.flow == nil {
		ws.flow = newFlowNetwork(m + n + 2)
	} else {
		ws.flow.reset(m + n + 2)
	}
	f := ws.flow
	src, snk := 0, m+n+1
	for a := 0; a < m; a++ {
		f.addEdge(src, 1+a, 1, 0)
		for b := 0; b < n; b++ {
			f.addEdge(1+a, m+1+b, 1, ground(x[a], y[b]))
		}
	}
	for b := 0; b < n; b++ {
		f.addEdge(m+1+b, snk, 1, 0)
	}
	sent, total := f.minCostFlow(src, snk, float64(i))
	if sent < float64(i)-1e-9 {
		return math.Inf(1) // unreachable for i ≤ min(m,n)
	}
	return total
}
