package optics

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/dist"
)

// gaussianClusters generates n points in c well-separated Gaussian blobs
// on a line; returns points and true labels (1-based).
func gaussianClusters(seed int64, c, perCluster int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64
	var labels []int
	for ci := 0; ci < c; ci++ {
		cx := float64(ci) * 100
		for i := 0; i < perCluster; i++ {
			pts = append(pts, []float64{cx + rng.NormFloat64(), rng.NormFloat64()})
			labels = append(labels, ci+1)
		}
	}
	return pts, labels
}

func runOn(pts [][]float64, minPts int) Result {
	return Run(len(pts), func(i, j int) float64 { return dist.L2(pts[i], pts[j]) },
		math.Inf(1), minPts)
}

func TestOPTICSOrderingCompleteAndUnique(t *testing.T) {
	pts, _ := gaussianClusters(1, 3, 20)
	r := runOn(pts, 5)
	if len(r.Order) != len(pts) {
		t.Fatalf("order has %d of %d objects", len(r.Order), len(pts))
	}
	seen := map[int]bool{}
	for _, o := range r.Order {
		if seen[o] {
			t.Fatalf("object %d appears twice", o)
		}
		seen[o] = true
	}
}

func TestOPTICSSeparatesClusters(t *testing.T) {
	pts, truth := gaussianClusters(2, 3, 25)
	r := runOn(pts, 5)
	labels := EpsCut(r, 10) // well between intra (≈1) and inter (≈100)
	if got := NumClusters(labels); got != 3 {
		t.Fatalf("eps-cut found %d clusters, want 3", got)
	}
	if p := Purity(labels, truth); p < 0.99 {
		t.Errorf("purity = %v", p)
	}
	if ari := AdjustedRandIndex(labels, truth); ari < 0.95 {
		t.Errorf("ARI = %v", ari)
	}
}

func TestOPTICSClusterMembersContiguous(t *testing.T) {
	// Objects of one true cluster must occupy a contiguous run in the
	// ordering (separated data).
	pts, truth := gaussianClusters(3, 4, 15)
	r := runOn(pts, 4)
	// Walk the ordering; each true class must appear in exactly one run.
	seenDone := map[int]bool{}
	prev := -1
	for _, obj := range r.Order {
		c := truth[obj]
		if c != prev {
			if seenDone[c] {
				t.Fatalf("class %d split across the ordering", c)
			}
			if prev != -1 {
				seenDone[prev] = true
			}
			prev = c
		}
	}
}

func TestOPTICSFirstObjectInfiniteReachability(t *testing.T) {
	pts, _ := gaussianClusters(4, 2, 10)
	r := runOn(pts, 3)
	if !math.IsInf(r.Reach[0], 1) {
		t.Error("first object must have infinite reachability")
	}
}

func TestOPTICSReachabilityReflectsDensity(t *testing.T) {
	// Mean in-cluster reachability must be far below the jump between
	// clusters.
	pts, _ := gaussianClusters(5, 2, 30)
	r := runOn(pts, 5)
	var jumps, within []float64
	for i := 1; i < len(r.Reach); i++ {
		if math.IsInf(r.Reach[i], 1) {
			continue
		}
		if r.Reach[i] > 50 {
			jumps = append(jumps, r.Reach[i])
		} else {
			within = append(within, r.Reach[i])
		}
	}
	if len(jumps) != 1 {
		t.Fatalf("expected exactly 1 inter-cluster jump, got %d", len(jumps))
	}
	meanWithin := 0.0
	for _, v := range within {
		meanWithin += v
	}
	meanWithin /= float64(len(within))
	if jumps[0] < 20*meanWithin {
		t.Errorf("jump %v not well separated from within-reachability %v", jumps[0], meanWithin)
	}
}

func TestOPTICSMinPtsGreaterThanN(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}}
	r := runOn(pts, 10)
	for i := range r.Core {
		if !math.IsInf(r.Core[i], 1) {
			t.Error("core distance must be infinite when minPts > n")
		}
	}
	for i := range r.Reach {
		if !math.IsInf(r.Reach[i], 1) {
			t.Error("no object can be density-reachable when minPts > n")
		}
	}
}

func TestOPTICSWithEpsBound(t *testing.T) {
	pts, truth := gaussianClusters(6, 3, 20)
	r := Run(len(pts), func(i, j int) float64 { return dist.L2(pts[i], pts[j]) }, 20, 5)
	labels := EpsCut(r, 10)
	if got := NumClusters(labels); got != 3 {
		t.Fatalf("clusters = %d, want 3", got)
	}
	if p := Purity(labels, truth); p < 0.99 {
		t.Errorf("purity = %v", p)
	}
}

func TestOPTICSEmptyAndSingle(t *testing.T) {
	r := Run(0, func(i, j int) float64 { return 0 }, math.Inf(1), 2)
	if len(r.Order) != 0 {
		t.Error("empty run should yield empty ordering")
	}
	r = Run(1, func(i, j int) float64 { return 0 }, math.Inf(1), 2)
	if len(r.Order) != 1 {
		t.Error("single object ordering")
	}
}

func TestOPTICSInvalidMinPtsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Run(3, func(i, j int) float64 { return 1 }, math.Inf(1), 0)
}

func TestEpsCutIncludesValleyStart(t *testing.T) {
	// Manually crafted plot: positions 0..5, reachability
	// [Inf, 9, 1, 1, 9, 1]; cut at 5 → cluster {1,2,3} (pos 1 starts the
	// valley) and {4,5}.
	r := Result{
		Order: []int{0, 1, 2, 3, 4, 5},
		Reach: []float64{math.Inf(1), 9, 1, 1, 9, 1},
		Core:  make([]float64, 6),
	}
	labels := EpsCut(r, 5)
	if NumClusters(labels) != 2 {
		t.Fatalf("clusters = %d, want 2", NumClusters(labels))
	}
	if labels[1] != 1 || labels[2] != 1 || labels[3] != 1 {
		t.Errorf("first valley labels = %v", labels)
	}
	if labels[4] != 2 || labels[5] != 2 {
		t.Errorf("second valley labels = %v", labels)
	}
	if labels[0] != 0 {
		t.Errorf("plot start should be noise, got %d", labels[0])
	}
}

func TestPurityAndARIBasics(t *testing.T) {
	clusters := []int{1, 1, 2, 2, 0}
	truth := []int{7, 7, 8, 9, 7}
	// Cluster 1: both class 7 → 2 correct. Cluster 2: classes 8,9 → 1.
	if p := Purity(clusters, truth); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("purity = %v, want 0.75", p)
	}
	if ari := AdjustedRandIndex(truth, truth); ari != 1 {
		t.Errorf("ARI(x,x) = %v", ari)
	}
}

func TestAdjustedRandIndexRandomIsLow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 500
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(5)
		b[i] = rng.Intn(5)
	}
	if ari := AdjustedRandIndex(a, b); math.Abs(ari) > 0.05 {
		t.Errorf("ARI of random labelings = %v, want ≈ 0", ari)
	}
}

func TestWriteCSV(t *testing.T) {
	pts, _ := gaussianClusters(9, 2, 5)
	r := runOn(pts, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(pts)+1 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "position,object") {
		t.Errorf("header = %q", lines[0])
	}
	// Infinite reachability serialized as empty field.
	if !strings.Contains(lines[1], ",,") {
		t.Errorf("first data line should have empty reachability: %q", lines[1])
	}
}

func TestRenderASCII(t *testing.T) {
	pts, _ := gaussianClusters(10, 3, 20)
	r := runOn(pts, 5)
	art := RenderASCII(r, 60, 10)
	if !strings.Contains(art, "#") || !strings.Contains(art, "^") {
		t.Error("plot should contain bars and infinity markers")
	}
	lines := strings.Split(art, "\n")
	if len(lines) < 12 {
		t.Errorf("plot has %d lines", len(lines))
	}
}

func TestRenderASCIIEdgeCases(t *testing.T) {
	if got := RenderASCII(Result{}, 10, 5); !strings.Contains(got, "empty") {
		t.Error("empty result should render placeholder")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero width")
		}
	}()
	RenderASCII(Result{Order: []int{0}, Reach: []float64{1}}, 0, 5)
}

func TestValleyCount(t *testing.T) {
	pts, _ := gaussianClusters(11, 4, 15)
	r := runOn(pts, 4)
	if got := valleyCount(r, 0.2); got != 4 {
		t.Errorf("valleys = %d, want 4", got)
	}
}

// valleyCount returns the number of clusters an ε-cut at the given
// fraction of the maximum finite reachability would produce — a crude
// scalar summary of how much structure a plot shows.
func valleyCount(r Result, fraction float64) int {
	maxFinite := 0.0
	for _, v := range r.Reach {
		if !math.IsInf(v, 1) && v > maxFinite {
			maxFinite = v
		}
	}
	if maxFinite == 0 {
		return 0
	}
	return NumClusters(EpsCut(r, maxFinite*fraction))
}
