package filter

import (
	"sync"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/vectorset"
)

// The signature stage (DESIGN.md §6): a store-backed FastL2 index keeps
// every object's sorted per-axis projection as 16-bit codes, in chunks of
// sigChunkLen consecutive base positions, and exact tests it after the
// Lemma 2 pull and before the set is fetched. A chunk is encoded on first
// touch — reading its sets through the store's At, which charges the
// tracker as any fetch does — so opening an index builds nothing, and a
// query that meets an unbuilt chunk waits on its sync.Once instead of
// racing another query to build it. Lookups read resident codes and
// charge nothing, like the centroid column.

// sigChunkLen is the number of objects per encoded chunk: the codes of a
// chunk share one lo and step per axis, so a longer chunk spans a wider
// range (coarser codes, weaker bound) and a shorter one pays more
// per-chunk overhead.
const sigChunkLen = 64

type sigChunk struct {
	once  sync.Once
	codes *dist.SignatureCodes
}

// signature returns the chunk holding position i, encoding it on first
// touch, and i's place in it.
func (ix *Index) signature(i int) (*dist.SignatureCodes, int) {
	c, ch := &ix.sigs[i/sigChunkLen], i/sigChunkLen
	c.once.Do(func() {
		lo := ch * sigChunkLen
		sets := make([]vectorset.Flat, min(sigChunkLen, ix.Len()-lo))
		for t := range sets {
			sets[t] = ix.store.At(lo + t)
		}
		c.codes = dist.EncodeSignatures(sets, ix.cfg.K, ix.omega)
	})
	return c.codes, i % sigChunkLen
}
