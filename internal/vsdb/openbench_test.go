package vsdb

import (
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vectorset"
)

// BenchmarkOpen100k measures the VXSNAP02 cold start at the scale the
// <100ms serving contract is stated for: mmap, header and offsets
// validation, and the STR bulk load over the centroid region.
func BenchmarkOpen100k(b *testing.B) {
	const (
		n   = 100_000
		dim = 4
		mc  = 3
	)
	path := filepath.Join(b.TempDir(), "big.vsnap")
	w, err := snapshot.CreatePaged(path, snapshot.PagedWriterOptions{
		Dim: dim, MaxCard: mc, Omega: make([]float64, dim),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	row := make([]float64, mc*dim)
	for i := 0; i < n; i++ {
		card := 1 + i%mc
		data := row[:card*dim]
		for j := range data {
			data[j] = rng.Float64() * 10
		}
		if err := w.Append(uint64(i+1), vectorset.Flat{Data: data, Card: card, Dim: dim}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := OpenFile(path, LoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}
