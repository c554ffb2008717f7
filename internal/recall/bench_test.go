package recall

import (
	"fmt"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/degrade"
	"github.com/voxset/voxset/internal/vsdb"
)

// benchSeed fixes the catalog the benchmark builds, so its numbers stay
// comparable with the table EXPERIMENTS.md has recorded.
const benchSeed = 0x5eed6

// BenchmarkDegradedRecall is the scan-to-CAD table (DESIGN.md §14): 96
// Aircraft parts, normalized scans at r = 15 with 7 covers, each part
// queried by a damaged rescan of itself. One sub-benchmark per damage
// kind × severity reports how often the true part reached the top 10
// under full minimal matching and under partial matching on the best 4
// sub-vectors. Everything is seeded, so each recall is an exact multiple
// of 1/96 and repeats run for run; one op is the cell's 96 full plus 96
// partial queries. The recall floors are TestDegraded*'s; this is the
// table.
func BenchmarkDegradedRecall(b *testing.B) {
	const (
		parts    = 96
		k        = 10
		partialI = 4
	)
	cat := BuildCatalog(cadgen.AircraftDataset(benchSeed, parts), degradedR, degradedCovers)
	db := newDegradedDB(b, cat)
	partial := func(q [][]float64, kk int) []vsdb.Neighbor {
		return searchOne(db, vsdb.Query{Set: q, Kind: vsdb.KNN, K: kk, Match: vsdb.SetQuery{Partial: true, I: partialI}})
	}
	for _, kind := range degrade.Kinds {
		for _, sev := range []float64{0.1, 0.25} {
			b.Run(fmt.Sprintf("%s/severity=%g", kind, sev), func(b *testing.B) {
				queries := DegradedQueries(cat, degradedCovers, degrade.Params{Kind: kind, Severity: sev, Seed: benchSeed})
				b.ResetTimer()
				var full, part float64
				for i := 0; i < b.N; i++ {
					full = TruePartRecall(cat, queries, k, db.KNN)
					part = TruePartRecall(cat, queries, k, partial)
				}
				b.ReportMetric(full, "recall_full@10")
				b.ReportMetric(part, "recall_partial@10")
			})
		}
	}
}
