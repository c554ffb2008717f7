package vsdb

// SetQuery selects the set distance a Query runs under. The zero value
// is the minimal matching distance, answered through the filter/refine
// engine, so callers that thread a SetQuery through without touching it
// lose nothing.
//
// Partial switches to the partial matching distance of §4.1: the
// cheapest pairing of i query vectors with i distinct object vectors,
// ignoring the rest of both sets. It is not a metric (it violates the
// triangle inequality), so the centroid filter's lower bound does not
// apply: a partial entry's candidates are a scan stream over every live
// object, each at bound 0, under the same multi-step loop as every other
// query (MultiStep), which refines them all and keeps the K best or those
// within Eps. That is the right trade for the workload it serves — a
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
