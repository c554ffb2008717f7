package optics

import "fmt"

// Purity computes the purity of a clustering against ground-truth class
// labels: the fraction of clustered objects that belong to the majority
// class of their cluster. Objects with cluster label 0 (noise) are
// excluded from the numerator and denominator. Returns 0 when nothing is
// clustered.
func Purity(clusters, truth []int) float64 {
	if len(clusters) != len(truth) {
		panic(fmt.Sprintf("optics: %d cluster labels vs %d truth labels", len(clusters), len(truth)))
	}
	counts := map[int]map[int]int{}
	total := 0
	for i, c := range clusters {
		if c == 0 {
			continue
		}
		if counts[c] == nil {
			counts[c] = map[int]int{}
		}
		counts[c][truth[i]]++
		total++
	}
	if total == 0 {
		return 0
	}
	correct := 0
	for _, byClass := range counts {
		best := 0
		for _, n := range byClass {
			if n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(total)
}

// AdjustedRandIndex computes the adjusted Rand index between two
// labelings (1 = identical partitions, ≈0 = random agreement). All
// objects participate; callers may pre-filter noise.
func AdjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("optics: %d vs %d labels", len(a), len(b)))
	}
	n := len(a)
	if n == 0 {
		return 1
	}
	cont := map[[2]int]int{}
	rowSum := map[int]int{}
	colSum := map[int]int{}
	for i := 0; i < n; i++ {
		cont[[2]int{a[i], b[i]}]++
		rowSum[a[i]]++
		colSum[b[i]]++
	}
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }
	var sumCells, sumRows, sumCols float64
	for _, v := range cont {
		sumCells += choose2(v)
	}
	for _, v := range rowSum {
		sumRows += choose2(v)
	}
	for _, v := range colSum {
		sumCols += choose2(v)
	}
	totalPairs := choose2(n)
	expected := sumRows * sumCols / totalPairs
	maxIdx := (sumRows + sumCols) / 2
	if maxIdx == expected {
		return 1 // both partitions are single clusters (or all singletons)
	}
	return (sumCells - expected) / (maxIdx - expected)
}
