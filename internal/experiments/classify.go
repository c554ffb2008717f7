package experiments

import (
	"fmt"
	"math"

	"github.com/voxset/voxset/internal/core"
)

// ClassifyRow reports leave-one-out 1-nn classification accuracy of a
// similarity model: each object is classified by the family of its
// nearest neighbor under the model distance. This complements the paper's
// OPTICS-based evaluation with a second objective effectiveness measure
// over the *whole* dataset — precisely the property §5.2 demands of a
// fair evaluation.
type ClassifyRow struct {
	Model    core.Model
	Accuracy float64
	Objects  int
}

// Classification1NN computes leave-one-out 1-nn accuracy for each model:
// one distance row per query object (core.Engine.RowFunc, parallel within
// the row), its nearest other object the first at the least distance.
func Classification1NN(e *core.Engine, models []core.Model, inv core.Invariance) []ClassifyRow {
	objs := e.Objects()
	n := len(objs)
	out := make([]float64, n)
	rows := make([]ClassifyRow, 0, len(models))
	for _, m := range models {
		row := e.RowFunc(m, inv)
		correct := 0
		for i := range objs {
			row(i, out)
			best, bestJ := math.Inf(1), -1
			for j, d := range out {
				if j != i && d < best {
					best, bestJ = d, j
				}
			}
			if bestJ >= 0 && objs[bestJ].ClassID == objs[i].ClassID {
				correct++
			}
		}
		rows = append(rows, ClassifyRow{Model: m, Accuracy: float64(correct) / float64(n), Objects: n})
	}
	return rows
}

// FormatClassify renders classification rows as text.
func FormatClassify(rows []ClassifyRow) string {
	s := fmt.Sprintf("%-12s %-10s %s\n", "model", "accuracy", "objects")
	for _, r := range rows {
		s += fmt.Sprintf("%-12s %-10s %d\n", r.Model, fmt.Sprintf("%.1f%%", 100*r.Accuracy), r.Objects)
	}
	return s
}
