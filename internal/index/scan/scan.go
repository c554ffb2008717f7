// Package scan provides the sequential-scan baseline of the paper's
// efficiency evaluation (§5.4, "Vect. Set seq. scan"): every query reads
// the whole object file and evaluates the exact distance for every
// object.
package scan

import (
	"sync/atomic"

	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/storage"
)

// Scanner answers similarity queries by exhaustive comparison.
type Scanner[T any] struct {
	dist    func(T, T) float64
	objects []T
	ids     []int
	file    *storage.PagedFile // optional: charged once per scan
	calls   atomic.Int64
}

// New returns an empty scanner with the given distance function. If file
// is non-nil, each query charges a full sequential read of it.
func New[T any](dist func(T, T) float64, file *storage.PagedFile) *Scanner[T] {
	return &Scanner[T]{dist: dist, file: file}
}

// Add registers an object under the given id.
func (s *Scanner[T]) Add(obj T, id int) {
	s.objects = append(s.objects, obj)
	s.ids = append(s.ids, id)
}

// Len returns the number of registered objects.
func (s *Scanner[T]) Len() int { return len(s.objects) }

// DistanceCalls returns the cumulative number of distance evaluations.
func (s *Scanner[T]) DistanceCalls() int64 { return s.calls.Load() }

// ResetDistanceCalls zeroes the distance counter.
func (s *Scanner[T]) ResetDistanceCalls() { s.calls.Store(0) }

func (s *Scanner[T]) chargeScan() {
	if s.file != nil {
		s.file.Scan(func(int, []byte) {})
	}
}

// distances evaluates the distance from q to every object.
func (s *Scanner[T]) distances(q T) []float64 {
	s.calls.Add(int64(len(s.objects)))
	out := make([]float64, len(s.objects))
	for i, obj := range s.objects {
		out[i] = s.dist(q, obj)
	}
	return out
}

// KNN returns the k nearest objects to q in (distance, id) order.
func (s *Scanner[T]) KNN(q T, k int) []index.Neighbor {
	if k <= 0 {
		return nil
	}
	s.chargeScan()
	dists := s.distances(q)
	all := make([]index.Neighbor, len(s.objects))
	for i := range s.objects {
		all[i] = index.Neighbor{ID: s.ids[i], Dist: dists[i]}
	}
	index.SortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Range returns all objects within eps of q in (distance, id) order.
func (s *Scanner[T]) Range(q T, eps float64) []index.Neighbor {
	s.chargeScan()
	dists := s.distances(q)
	var out []index.Neighbor
	for i := range s.objects {
		if dists[i] <= eps {
			out = append(out, index.Neighbor{ID: s.ids[i], Dist: dists[i]})
		}
	}
	index.SortNeighbors(out)
	return out
}
