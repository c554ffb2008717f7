package vectorset

import (
	"cmp"
	"math"
	"slices"
)

// A base — the compacted objects a served database ranks in place — is
// stored in block order: positions [b·BlockLen, (b+1)·BlockLen) form
// block b, a group of objects with near extended centroids, and the
// filter keeps one bounding box per block (BlockBoxes) so that a query
// reads only the blocks its reach meets (DESIGN.md §6). Both places a
// base is made order it with BlockOrder: the snapshot writer's Finish and
// vsdb's heap base (compaction, bulk insert, open).

// BlockLen is the number of positions per block. Measured on the served
// corpus (10 k jittered objects, k = 10), 64 and 32 read within noise of
// each other; a longer block reads more rows per box, a shorter one more
// boxes and coarser signature code spaces.
const BlockLen = 64

// BlockOrder returns the block order of the rows (ids[i], cents[i·dim :
// (i+1)·dim]): perm[s] is the row stored at position s. Each range of
// more than one block is split at a block boundary near its middle,
// along the axis of its widest spread, by selection (not a sort) on that
// coordinate; then each block is sorted by id.
//
// The order is canonical: selection runs under the total order
// (coordinate, id), a NaN coordinate sorting as +Inf, so every range
// holds the same set of rows whatever the input order, and the result
// depends only on the set of rows. Ordering an ordered column is the
// identity, which is what keeps the bytes of a snapshot a function of
// the database's content. ids must be distinct.
func BlockOrder(ids []uint64, cents []float64, dim int) []int {
	n := len(ids)
	o := &blockOrder{
		dim:  dim,
		ids:  slices.Clone(ids),
		rows: slices.Clone(cents[:n*dim]),
		perm: make([]int, n),
	}
	for i := range o.perm {
		o.perm[i] = i
	}
	for i, v := range o.rows {
		if v != v {
			o.rows[i] = math.Inf(1)
		}
	}
	o.split(0, n, make([]float64, dim), make([]float64, dim))
	for lo := 0; lo < n; lo += BlockLen {
		slices.SortFunc(o.perm[lo:min(lo+BlockLen, n)], func(a, b int) int {
			return cmp.Compare(ids[a], ids[b])
		})
	}
	return o.perm
}

// blockOrder is BlockOrder's working state: the rows (NaN coordinates
// replaced by +Inf, the value they sort as) and their ids move with their
// positions, so every level of the split reads them sequentially.
type blockOrder struct {
	dim  int
	ids  []uint64
	rows []float64
	perm []int
}

// split orders positions [lo, hi) into blocks; mn and mx are dim-long
// scratch.
func (o *blockOrder) split(lo, hi int, mn, mx []float64) {
	dim := o.dim
	for hi-lo > BlockLen {
		for j := range mn {
			mn[j], mx[j] = math.Inf(1), math.Inf(-1)
		}
		for s := lo; s < hi; s++ {
			for j, v := range o.rows[s*dim : (s+1)*dim] {
				if v < mn[j] {
					mn[j] = v
				}
				if v > mx[j] {
					mx[j] = v
				}
			}
		}
		axis, widest := 0, math.Inf(-1)
		for j := range mn {
			if w := mx[j] - mn[j]; w > widest {
				axis, widest = j, w
			}
		}
		mid := lo + ((hi-lo+BlockLen-1)/BlockLen+1)/2*BlockLen
		o.nth(lo, hi, mid, axis)
		o.split(lo, mid, mn, mx)
		lo = mid
	}
}

// key is position s's coordinate on axis.
func (o *blockOrder) key(s, axis int) float64 { return o.rows[s*o.dim+axis] }

// before reports whether position s precedes the pivot (v, id) in the
// total order (coordinate, id).
func (o *blockOrder) before(s, axis int, v float64, id uint64) bool {
	k := o.key(s, axis)
	return k < v || (k == v && o.ids[s] < id)
}

// after reports whether position s follows the pivot (v, id).
func (o *blockOrder) after(s, axis int, v float64, id uint64) bool {
	k := o.key(s, axis)
	return k > v || (k == v && o.ids[s] > id)
}

// nth reorders positions [lo, hi) so that position nth holds the row of
// that rank in the order (coordinate, id), none before it greater and
// none after it less (quickselect: median-of-three pivot, Hoare
// partition).
func (o *blockOrder) nth(lo, hi, nth, axis int) {
	for hi-lo > 1 {
		a, b, c := lo, lo+(hi-lo)/2, hi-1
		if o.after(a, axis, o.key(b, axis), o.ids[b]) {
			a, b = b, a
		}
		if o.after(b, axis, o.key(c, axis), o.ids[c]) {
			b = c
			if o.after(a, axis, o.key(b, axis), o.ids[b]) {
				b = a
			}
		}
		pv, pid := o.key(b, axis), o.ids[b] // the median of the three
		i, j := lo, hi-1
		for i <= j {
			for o.before(i, axis, pv, pid) {
				i++
			}
			for o.after(j, axis, pv, pid) {
				j--
			}
			if i <= j {
				o.swap(i, j)
				i++
				j--
			}
		}
		switch { // [lo, j] precede the pivot, (j, i) is the pivot, [i, hi) follow it
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

func (o *blockOrder) swap(a, b int) {
	if a == b {
		return
	}
	o.perm[a], o.perm[b] = o.perm[b], o.perm[a]
	o.ids[a], o.ids[b] = o.ids[b], o.ids[a]
	ra, rb := o.rows[a*o.dim:(a+1)*o.dim], o.rows[b*o.dim:(b+1)*o.dim]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// BlockBoxes returns the bounding box of every block of the column cents
// (n·dim values, position s's centroid at [s·dim, (s+1)·dim)), in any
// order: box[2b·dim : (2b+1)·dim] is block b's low corner and the next
// dim values its high corner, over its members' non-NaN coordinates
// (±Inf kept). A box over any BlockLen positions bounds its members, so
// a ranking by boxes is exact over a column in any order; in block order
// the boxes are small and a query's reach meets few of them.
func BlockBoxes(cents []float64, dim int) []float64 {
	n := len(cents) / dim
	nb := (n + BlockLen - 1) / BlockLen
	box := make([]float64, 2*nb*dim)
	for b := range nb {
		lo, hi := box[2*b*dim:(2*b+1)*dim], box[(2*b+1)*dim:(2*b+2)*dim]
		for j := range lo {
			lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		}
		for s := b * BlockLen; s < min((b+1)*BlockLen, n); s++ {
			for j, v := range cents[s*dim : (s+1)*dim] {
				// A NaN fails both tests: it would turn the box into NaN
				// and hide the block's finite members.
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
	}
	return box
}
