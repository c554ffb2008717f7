package main

import (
	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/degrade"
	"github.com/voxset/voxset/internal/recall"
	"github.com/voxset/voxset/internal/vsdb"
)

// DegradedDoc measures scan-to-CAD retrieval (DESIGN.md §14): a catalog
// of synthetic aircraft parts is queried by damaged rescans of those
// same parts — cropped, noisy, patch-dropped and low-resolution scans —
// and each row reports how often the true part surfaced in the top-k
// under the full minimal-matching distance versus partial matching on
// the best i sub-vectors.
type DegradedDoc struct {
	Parts    int              `json:"parts"`
	K        int              `json:"k"`
	Covers   int              `json:"covers"`
	PartialI int              `json:"partial_i"`
	Rows     []DegradedRowDoc `json:"rows"`
}

// DegradedRowDoc is one damage kind × severity cell.
type DegradedRowDoc struct {
	Kind              string  `json:"kind"`
	Severity          float64 `json:"severity"`
	RecallFullAt10    float64 `json:"recall_full_at_10"`
	RecallPartialAt10 float64 `json:"recall_partial_at_10"`
}

// measureDegraded builds the part catalog (normalized cover-resolution
// scans at r=15, 7-cover vector sets — the same extraction the serving
// pipeline uses) and sweeps every degrade.Kind over the severity list.
func measureDegraded(quick bool) *DegradedDoc {
	const (
		r        = 15
		covers   = 7
		k        = 10
		partialI = 4
	)
	nParts, severities := 96, []float64{0.1, 0.25}
	if quick {
		nParts, severities = 32, []float64{0.1}
	}
	parts := cadgen.AircraftDataset(seed, nParts)
	cat := recall.BuildCatalog(parts, r, covers)
	if len(cat.IDs) == 0 {
		fatal("degraded: catalog extracted empty")
	}
	db, err := vsdb.Open(vsdb.Config{Dim: 6, MaxCard: covers})
	if err != nil {
		fatal("degraded: %v", err)
	}
	defer db.Close()
	if err := db.BulkInsert(cat.IDs, cat.Sets); err != nil {
		fatal("degraded bulk insert: %v", err)
	}

	out := &DegradedDoc{Parts: len(cat.IDs), K: k, Covers: covers, PartialI: partialI}
	for _, kind := range degrade.Kinds {
		for _, sev := range severities {
			queries := recall.DegradedQueries(cat, covers, degrade.Params{Kind: kind, Severity: sev, Seed: seed})
			full := recall.TruePartRecall(cat, queries, k, db.KNN)
			partial := recall.TruePartRecall(cat, queries, k, func(q [][]float64, kk int) []vsdb.Neighbor {
				return db.Search([]vsdb.Query{{Set: q, Kind: vsdb.KNN, K: kk, Match: vsdb.SetQuery{Partial: true, I: partialI}}})[0]
			})
			out.Rows = append(out.Rows, DegradedRowDoc{
				Kind:              kind.String(),
				Severity:          sev,
				RecallFullAt10:    full,
				RecallPartialAt10: partial,
			})
		}
	}
	return out
}
