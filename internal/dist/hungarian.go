package dist

import (
	"math"
)

// Assign solves the rectangular assignment problem with the Kuhn-Munkres
// ("Hungarian") algorithm in its O(n²·m) potentials formulation
// (Kuhn 1955, Munkres 1957): given an n×m cost matrix with n ≤ m, it
// returns for every row the column assigned to it and the minimal total
// cost. Each column is used at most once.
//
// This is the computational core of the minimal matching distance
// (paper §4.2): with n = m = k the running time is O(k³). The solver
// scratch comes from the shared workspace pool; callers in hot loops
// should hold a *Workspace and call its Assign to avoid the result copy.
//
// Assign panics on malformed matrices (ragged rows, rows > cols) — that
// is a programmer error in the internal call paths; sets from external
// input are validated before a matrix is built (vsdb.CheckSet).
func Assign(cost [][]float64) (rowToCol []int, total float64) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	asg, total := ws.Assign(cost)
	if asg == nil {
		return nil, total
	}
	return append([]int(nil), asg...), total
}

// assignBrute solves the assignment problem by enumerating all column
// choices; used by tests to validate Assign on small inputs.
func assignBrute(cost [][]float64) ([]int, float64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	m := len(cost[0])
	best := math.Inf(1)
	var bestAsg []int
	asg := make([]int, n)
	usedCols := make([]bool, m)
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if sum >= best {
			return
		}
		if i == n {
			best = sum
			bestAsg = append([]int(nil), asg...)
			return
		}
		for j := 0; j < m; j++ {
			if usedCols[j] {
				continue
			}
			usedCols[j] = true
			asg[i] = j
			rec(i+1, sum+cost[i][j])
			usedCols[j] = false
		}
	}
	rec(0, 0)
	return bestAsg, best
}
