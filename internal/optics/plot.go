package optics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteCSV emits the reachability plot as CSV: position, object id,
// reachability (empty for +Inf), core distance (empty for +Inf).
func WriteCSV(w io.Writer, r Result) error {
	if _, err := fmt.Fprintln(w, "position,object,reachability,core_distance"); err != nil {
		return err
	}
	fmtVal := func(v float64) string {
		if math.IsInf(v, 1) {
			return ""
		}
		return fmt.Sprintf("%g", v)
	}
	for i, obj := range r.Order {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%s\n", i, obj, fmtVal(r.Reach[i]), fmtVal(r.Core[i])); err != nil {
			return err
		}
	}
	return nil
}

// RenderASCII draws the reachability plot as ASCII art of the given
// height. Each column is one (or several, when the ordering is longer
// than width) consecutive plot positions; bar height is proportional to
// reachability, with +Inf rendered as a full column topped with '^'.
func RenderASCII(r Result, width, height int) string {
	if width < 1 || height < 1 {
		panic("optics: RenderASCII needs positive width and height")
	}
	n := len(r.Order)
	if n == 0 {
		return "(empty ordering)\n"
	}
	if width > n {
		width = n
	}
	// Aggregate consecutive positions into columns (max reachability).
	cols := make([]float64, width)
	inf := make([]bool, width)
	maxFinite := 0.0
	for i := 0; i < n; i++ {
		c := i * width / n
		v := r.Reach[i]
		if math.IsInf(v, 1) {
			inf[c] = true
			continue
		}
		if v > cols[c] {
			cols[c] = v
		}
		if v > maxFinite {
			maxFinite = v
		}
	}
	if maxFinite == 0 {
		maxFinite = 1
	}
	var sb strings.Builder
	for row := height; row >= 1; row-- {
		thresh := maxFinite * float64(row) / float64(height)
		for c := 0; c < width; c++ {
			switch {
			case inf[c] && row == height:
				sb.WriteByte('^')
			case inf[c]:
				sb.WriteByte('|')
			case cols[c] >= thresh:
				sb.WriteByte('#')
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	sb.WriteString(fmt.Sprintf("max reachability: %.4g, objects: %d\n", maxFinite, n))
	return sb.String()
}
