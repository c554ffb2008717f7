package vsdb

import (
	"context"

	"github.com/voxset/voxset/internal/dist"
)

// SetQuery selects the set distance a Query runs under. The zero value
// is the minimal matching distance, answered through the filter/refine
// engine, so callers that thread a SetQuery through without touching it
// lose nothing.
//
// Partial switches to the partial matching distance of §4.1: the
// cheapest pairing of i query vectors with i distinct object vectors,
// ignoring the rest of both sets. It is not a metric (it violates the
// triangle inequality), so the centroid filter's lower bound does not
// apply; partial queries run as an exact scan over every live
// object. That is the right trade for the workload it serves — a
// damaged or cropped scan whose surviving sub-vectors should match the
// true part without the missing ones being charged as weight.
type SetQuery struct {
	// Partial selects the partial matching distance instead of the
	// minimal matching distance.
	Partial bool
	// I is the matching size: the number of vector pairs the partial
	// distance is allowed to use. It is clamped per object pair to
	// min(I, |query|, |object|); 0 means "as many as possible"
	// (min(|query|, |object|) for each pair). Ignored unless Partial.
	I int
}

// partialI resolves the effective matching size for one (query, object)
// cardinality pair.
func (q SetQuery) partialI(nq, nobj int) int {
	i := q.I
	if i <= 0 || i > nq {
		i = nq
	}
	if i > nobj {
		i = nobj
	}
	return i
}

// partialView answers one Match.Partial query against a pinned view by
// exact scan: every live object within Eps for a Range query, the K
// nearest for a KNN query.
func (db *DB) partialView(ctx context.Context, v *view, q *Query) ([]Neighbor, error) {
	if q.Kind == Range {
		return db.partialScan(ctx, v, q.Set, q.Match, q.Eps)
	}
	out, err := db.partialScan(ctx, v, q.Set, q.Match, -1)
	if k := min(q.K, len(out)); k < len(out) {
		out = out[:k:k]
	}
	return out, err
}

// partialScan computes the partial matching distance from query to
// every live object in the view — base and delta alike, tombstones
// excluded — on the caller's goroutine. eps ≥ 0 filters to the range
// predicate, eps < 0 keeps everything; the list is (dist, id)-ordered
// like every other query path. ctx is checked once per ctxEvery objects.
func (db *DB) partialScan(ctx context.Context, v *view, query [][]float64, q SetQuery, eps float64) ([]Neighbor, error) {
	n := len(v.ids)
	if n == 0 {
		return nil, nil
	}
	ws := dist.GetWorkspace()
	defer dist.PutWorkspace(ws)
	out := make([]Neighbor, 0, n)
	for i, id := range v.ids {
		if (i+1)%ctxEvery == 0 {
			if err := ctx.Err(); err != nil {
				db.refExtra.Add(int64(i))
				return nil, err
			}
		}
		set := v.get(id).Rows()
		d := ws.PartialMatching(query, set, dist.L2, q.partialI(len(query), len(set)))
		if eps >= 0 && d > eps {
			continue
		}
		out = append(out, Neighbor{ID: id, Dist: d})
	}
	db.refExtra.Add(int64(n))
	sortNeighbors(out)
	return out, nil
}
