package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// p99 of 1000 values has exactly ten samples beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4) — the rule the driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 8.25}, // order must not matter
		{[]float64{1.5, 2.5, 4, 8, 16}, 2.0, 12.0},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 3}, 0.5, 3.5}, // two values: Python extrapolates past the sample
		{[]float64{2, 4, 9}, 2.0, 9.0},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreads(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrSpread = %v, want %v", got, want)
	}
	if got, want := rangeSpread(xs), 9/5.5; !near(got, want) {
		t.Errorf("rangeSpread = %v, want %v", got, want)
	}
	if iqrSpread([]float64{0, 0, 0}) != 0 || rangeSpread(nil) != 0 {
		t.Error("a zero median must give spread 0, not NaN")
	}
}
