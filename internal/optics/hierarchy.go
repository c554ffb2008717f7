package optics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ClusterNode is one node of the hierarchical cluster tree extracted from
// a reachability plot. The paper's evaluation highlights exactly this
// structure: Figure 9c's cluster G contains sub-clusters G₁ and G₂, a
// hierarchy the one-vector cover model loses.
type ClusterNode struct {
	// Start and End delimit the cluster as positions in the cluster
	// ordering (End exclusive).
	Start, End int
	// Eps is the reachability level below which this cluster's members
	// stay connected.
	Eps float64
	// Children are strictly nested sub-clusters, ordered by Start.
	Children []*ClusterNode
}

// Size returns the number of objects in the cluster.
func (n *ClusterNode) Size() int { return n.End - n.Start }

// Objects returns the member object indices given the ordering.
func (n *ClusterNode) Objects(r Result) []int {
	return append([]int(nil), r.Order[n.Start:n.End]...)
}

// HierarchicalClusters extracts the tree of density-based clusters from a
// cluster ordering by sweeping ε-cut levels: every distinct finite
// reachability value is a candidate level; maximal valleys at each level
// become nodes and nesting yields the tree. minSize suppresses clusters
// smaller than the given number of objects. The returned forest is
// ordered by Start.
func HierarchicalClusters(r Result, minSize int) []*ClusterNode {
	if minSize < 2 {
		minSize = 2
	}
	// Candidate levels: distinct finite reachabilities, descending —
	// coarsest clusters first so parents are created before children.
	lvls := map[float64]bool{}
	for _, v := range r.Reach {
		if !math.IsInf(v, 1) && v > 0 {
			lvls[v] = true
		}
	}
	levels := make([]float64, 0, len(lvls))
	for v := range lvls {
		levels = append(levels, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(levels)))

	var roots []*ClusterNode
	// seen maps [start,end) to the node so deeper levels producing the
	// same interval don't duplicate nodes.
	type span struct{ s, e int }
	seen := map[span]*ClusterNode{}

	for _, eps := range levels {
		for _, iv := range valleysAt(r, eps) {
			if iv.e-iv.s < minSize {
				continue
			}
			if _, dup := seen[iv]; dup {
				continue
			}
			node := &ClusterNode{Start: iv.s, End: iv.e, Eps: eps}
			seen[iv] = node
			attach(&roots, node)
		}
	}
	collapse(&roots)
	return roots
}

// significanceXi is the relative size decrease an only-child cluster must
// show to be kept as a separate hierarchy level (after the ξ-method of
// Ankerst et al.): chains of nodes shrinking by less are the same cluster
// observed at successively lower ε and are collapsed.
const significanceXi = 0.15

// collapse removes insignificant only-children, adopting their children.
func collapse(forest *[]*ClusterNode) {
	for _, n := range *forest {
		for len(n.Children) == 1 &&
			float64(n.Children[0].Size()) > (1-significanceXi)*float64(n.Size()) {
			n.Children = n.Children[0].Children
		}
		collapse(&n.Children)
	}
}

type span = struct{ s, e int }

// valleysAt returns the maximal intervals of an ε-cut at eps, including
// the valley-start object (as EpsCut does).
func valleysAt(r Result, eps float64) []span {
	var out []span
	n := len(r.Order)
	open := -1
	for i := 0; i < n; i++ {
		if r.Reach[i] < eps {
			if open < 0 {
				open = i - 1
				if open < 0 {
					open = 0
				}
			}
		} else if open >= 0 {
			out = append(out, span{open, i})
			open = -1
		}
	}
	if open >= 0 {
		out = append(out, span{open, n})
	}
	return out
}

// attach inserts node into the forest, descending into any node that
// strictly contains it. A node that shrinks its parent by at most one
// object on a single side is the same density cluster seen one ε-level
// lower (the valley-start artifact) and is dropped as insignificant.
func attach(forest *[]*ClusterNode, node *ClusterNode) {
	for _, root := range *forest {
		if root.Start <= node.Start && node.End <= root.End {
			if node.Start-root.Start+(root.End-node.End) <= 1 {
				return // same cluster up to the valley-start object
			}
			attach(&root.Children, node)
			return
		}
	}
	*forest = append(*forest, node)
	sort.Slice(*forest, func(i, j int) bool { return (*forest)[i].Start < (*forest)[j].Start })
}

// RenderTree pretty-prints a cluster forest; labelFn (optional) summarizes
// the members of a node, e.g. by majority class.
func RenderTree(forest []*ClusterNode, r Result, labelFn func(objects []int) string) string {
	var sb strings.Builder
	var walk func(n *ClusterNode, depth int)
	walk = func(n *ClusterNode, depth int) {
		label := ""
		if labelFn != nil {
			label = "  " + labelFn(n.Objects(r))
		}
		fmt.Fprintf(&sb, "%s[%d..%d) size %d, ε < %.3g%s\n",
			strings.Repeat("  ", depth), n.Start, n.End, n.Size(), n.Eps, label)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, root := range forest {
		walk(root, 0)
	}
	return sb.String()
}
