package optics

import (
	"math"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/dist"
)

// synthetic plot with a nested structure: one big valley containing two
// sub-valleys (the paper's G ⊃ {G₁, G₂} pattern).
func nestedResult() Result {
	reach := []float64{
		math.Inf(1), // 0: start
		9,           // 1: big valley begins (G)
		2, 2, 2,     // 2-4: sub-valley G1
		6,       // 5: separator inside G
		2, 2, 2, // 6-8: sub-valley G2
		20,   // 9: out of G
		3, 3, // 10-11: another top-level valley
	}
	order := make([]int, len(reach))
	for i := range order {
		order[i] = i
	}
	return Result{Order: order, Reach: reach, Core: make([]float64, len(reach))}
}

func TestHierarchicalClustersNesting(t *testing.T) {
	forest := HierarchicalClusters(nestedResult(), 2)
	if len(forest) != 2 {
		t.Fatalf("roots = %d, want 2", len(forest))
	}
	g := forest[0]
	if g.Start != 0 || g.End != 9 {
		t.Fatalf("G span = [%d,%d)", g.Start, g.End)
	}
	if len(g.Children) != 2 {
		t.Fatalf("G children = %d, want 2 (G1, G2)", len(g.Children))
	}
	g1, g2 := g.Children[0], g.Children[1]
	if g1.Start != 1 || g1.End != 5 {
		t.Errorf("G1 span = [%d,%d)", g1.Start, g1.End)
	}
	if g2.Start != 5 || g2.End != 9 {
		t.Errorf("G2 span = [%d,%d)", g2.Start, g2.End)
	}
	if g.Eps <= g1.Eps {
		t.Errorf("parent ε %v should exceed child ε %v", g.Eps, g1.Eps)
	}
}

func TestHierarchicalClustersMinSize(t *testing.T) {
	forest := HierarchicalClusters(nestedResult(), 5)
	// Only the big valley survives (size 9); the second root (size 3) and
	// the sub-valleys (size 4 each) are suppressed.
	if len(forest) != 1 {
		t.Fatalf("roots = %d, want 1", len(forest))
	}
	if len(forest[0].Children) != 0 {
		t.Errorf("children should be suppressed by minSize, got %d", len(forest[0].Children))
	}
}

func TestHierarchicalClustersOnRealClustering(t *testing.T) {
	// Two groups, one of which splits into two sub-groups at finer scale.
	var pts [][]float64
	addBlob := func(cx float64, n int) {
		for i := 0; i < n; i++ {
			pts = append(pts, []float64{cx + float64(i%5)*0.2, float64(i/5) * 0.2})
		}
	}
	addBlob(0, 15)    // sub-group A1
	addBlob(8, 15)    // sub-group A2 (A1 ∪ A2 form super-group A vs far B)
	addBlob(1000, 15) // group B
	r := Run(len(pts), func(i, j int) float64 { return dist.L2(pts[i], pts[j]) }, math.Inf(1), 3)
	forest := HierarchicalClusters(r, 5)
	leaves := flattenLeaves(forest)
	if len(leaves) < 3 {
		t.Fatalf("leaves = %d, want ≥ 3 (A1, A2, B)", len(leaves))
	}
	// Some node must contain ≈30 objects (the A super-group).
	foundSuper := false
	var walk func(ns []*ClusterNode)
	walk = func(ns []*ClusterNode) {
		for _, n := range ns {
			if n.Size() >= 28 && n.Size() <= 33 && len(n.Children) >= 2 {
				foundSuper = true
			}
			walk(n.Children)
		}
	}
	walk(forest)
	if !foundSuper {
		t.Error("super-group with two sub-clusters not found in hierarchy")
	}
}

func TestRenderTreeAndLeaves(t *testing.T) {
	r := nestedResult()
	forest := HierarchicalClusters(r, 2)
	out := RenderTree(forest, r, func(objs []int) string { return "n/a" })
	if !strings.Contains(out, "size 9") || !strings.Contains(out, "  [") {
		t.Errorf("tree rendering:\n%s", out)
	}
	leaves := flattenLeaves(forest)
	if len(leaves) != 3 { // G1, G2 and the second top-level valley
		t.Errorf("leaves = %d, want 3", len(leaves))
	}
}

func TestHierarchyEmptyPlot(t *testing.T) {
	if got := HierarchicalClusters(Result{}, 2); len(got) != 0 {
		t.Error("empty plot should yield empty forest")
	}
}

// flattenLeaves returns the leaf clusters of the forest (the finest
// clusters), ordered by Start.
func flattenLeaves(forest []*ClusterNode) []*ClusterNode {
	var out []*ClusterNode
	var walk func(n *ClusterNode)
	walk = func(n *ClusterNode) {
		if len(n.Children) == 0 {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range forest {
		walk(root)
	}
	return out
}
