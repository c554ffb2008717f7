package filter

import (
	"sync"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/vectorset"
)

// The signature stage (DESIGN.md §6): a store-backed FastL2 index keeps
// every object's sorted per-axis projection as 16-bit codes, one code
// space per block of vectorset.BlockLen positions (the ranking's blocks,
// rank.go), and exact tests it after the Lemma 2 pull and before the set
// is fetched. A block's codes share one lo and step per axis, so a block
// of near centroids — block order groups them — spans a narrow range and
// gets fine codes, and an outlier coarsens only its own block. A block is
// encoded on first touch — reading its sets through the store's At, which
// charges the tracker as any fetch does — so opening an index builds
// nothing, and a query that meets an unbuilt block waits on its sync.Once
// instead of racing another query to build it. Lookups read resident
// codes and charge nothing, like the centroid rows.
//
// A query is quantized into a block's code space the first time it tests
// one of the block's objects (dist.SignatureCodes.Quantize), and each
// candidate then costs one integer Σ|q−c| per axis (Exceeds). The
// quantizations live in the query's sigQuery, pooled by the index.

type sigBlock struct {
	once  sync.Once
	codes *dist.SignatureCodes
}

// sigQuery is one query's side of the signature stage: its exact
// signature and its quantizations into the blocks it has touched.
type sigQuery struct {
	exact   dist.Signature
	at      []int32 // per block: 1 + its quantization's index in qs, 0 if none yet
	qs      []dist.QuantizedSignature
	touched []int32 // the blocks with an at entry, to clear on release
	pool    *sync.Pool
}

// newSigQuery prepares the signature stage for query f.
func (ix *Index) newSigQuery(f vectorset.Flat) *sigQuery {
	sq := ix.sigPool.Get().(*sigQuery)
	sq.exact.Reset(f, ix.cfg.K, ix.omega)
	return sq
}

func (sq *sigQuery) release() {
	for _, b := range sq.touched {
		sq.at[b] = 0
	}
	sq.touched, sq.qs = sq.touched[:0], sq.qs[:0]
	sq.pool.Put(sq)
}

// sigExceeds reports whether the signature bound proves base position i
// farther than threshold, encoding i's block and quantizing the query
// into it on first touch.
func (ix *Index) sigExceeds(sq *sigQuery, i int, threshold float64) bool {
	b := i / vectorset.BlockLen
	c := &ix.sigs[b]
	c.once.Do(func() {
		lo := b * vectorset.BlockLen
		sets := make([]vectorset.Flat, min(vectorset.BlockLen, ix.Len()-lo))
		for t := range sets {
			sets[t] = ix.store.At(lo + t)
		}
		c.codes = dist.EncodeSignatures(sets, ix.cfg.K, ix.omega)
	})
	at := sq.at[b]
	if at == 0 {
		if len(sq.qs) < cap(sq.qs) {
			sq.qs = sq.qs[:len(sq.qs)+1] // reuse the buffers of an earlier query's entry
		} else {
			sq.qs = append(sq.qs, dist.QuantizedSignature{})
		}
		c.codes.Quantize(&sq.exact, &sq.qs[len(sq.qs)-1])
		at = int32(len(sq.qs))
		sq.at[b] = at
		sq.touched = append(sq.touched, int32(b))
	}
	return c.codes.Exceeds(&sq.qs[at-1], i%vectorset.BlockLen, threshold)
}

// sigPoolFor returns the sigQuery pool of an index with nb blocks.
func sigPoolFor(nb int) *sync.Pool {
	p := new(sync.Pool)
	p.New = func() any { return &sigQuery{at: make([]int32, nb), pool: p} }
	return p
}
