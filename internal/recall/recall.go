// Package recall measures scan-to-CAD retrieval (DESIGN.md §14): a
// catalog of undamaged parts is queried by damaged rescans of those same
// parts, and the score is how often the true part surfaces in the top-k.
// The recall floors run as tests; BenchmarkDegradedRecall produces the
// EXPERIMENTS.md table.
//
// The harness is engine-agnostic: it sees a k-nn engine as a KNNFunc, so
// a vsdb database, a sharded cluster coordinator and partial matching all
// measure through the same code.
package recall

import "github.com/voxset/voxset/internal/vsdb"

// KNNFunc answers one k-nn query.
type KNNFunc func(query [][]float64, k int) []vsdb.Neighbor
