package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/voxel"
	"github.com/voxset/voxset/internal/vsdb"
)

const (
	conns        = 2  // closed-loop connections; nproc on the reference box
	knnK         = 10 // neighbours per k-nn, the paper's Table 2 setting
	batchSize    = 16
	zipfS        = 1.3       // knn hit ratio ≈ 0.8 on a 256-entry LRU: the p50 is a hit, the p95 a miss
	meshRes      = 30        // grid the uploaded surface meshes are cut from
	insertIDBase = 1_000_000 // run-inserted ids start here, clear of the corpus
	insertIDConn = 500_000_000
	deleteAge    = 500 // a delete targets an insert at least this many ops back
)

type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opBatch
	opInsert
	opDelete
	opObject
	opMesh
	numOps
)

var opNames = [numOps]string{"knn", "range", "batch", "insert", "delete", "object", "mesh"}

// request is one generated operation. Everything the wire needs is
// precomputed so that the send loop does no marshalling beyond splicing an
// id; everything the oracle needs to re-derive the answer is kept beside it.
type request struct {
	op     opKind
	bucket int8   // opRange: ε bucket 0..2; otherwise -1
	path   string // fixed request path; opObject builds its own
	// body is the complete request body, except for opInsert, where it is
	// the JSON of the set alone and the id is spliced in per cycle.
	body []byte
	// id is the object an insert, delete or object read names, as of the
	// list's first pass; later passes shift it (see worker.wire).
	id uint64

	set  [][]float64 // inline query set or inserted set
	ids  []uint64    // by-id queries: the stored objects queried
	eps  float64     // opRange
	mesh int         // opMesh: index into requestSet.meshes
}

// requestSet is one workload's generated input: a request list per
// connection, each cycled in order.
type requestSet struct {
	lists  [conns][]request
	stride uint64   // id shift between passes over a write-mix list
	meshes [][]byte // mesh-upload: the STL bodies

	calib *calibration // sharded-cached: the ε buckets
}

// calibration records how the three range radii were derived and what
// result sizes they realise on the calibration sample.
type calibration struct {
	Eps     [3]float64 `json:"eps"`
	Targets [3]int     `json:"target_sizes"`
	// SampleSizes[b] are the quartiles of the result size at Eps[b] over
	// the calibration queries (sizes above 101 read as 101).
	SampleSizes [3][3]int `json:"sample_size_q1_med_q3"`
	Queries     int       `json:"queries"`
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite floats and plain structs are ever passed
	}
	return b
}

type setQuery struct {
	Set [][]float64 `json:"set"`
	K   int         `json:"k"`
}

type idQuery struct {
	ID  uint64   `json:"id"`
	K   int      `json:"k,omitempty"`
	Eps *float64 `json:"eps,omitempty"`
}

func connRNG(seed int64, workload string, conn int) *rand.Rand {
	h := seed*1_000_003 + int64(conn)*7919
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}

// genKNNExact: every request is a /knn by an explicit set — a corpus member
// with N(0, querySD) noise — so no two requests share a cache key and none
// is a distance-0 self hit.
func genKNNExact(seed int64, c *corpus, sz sizes) *requestSet {
	rs := &requestSet{}
	for conn := range rs.lists {
		rng := connRNG(seed, "knn-exact", conn)
		list := make([]request, sz.listLen)
		for i := range list {
			list[i] = jitteredKNN(rng, c)
		}
		rs.lists[conn] = list
	}
	return rs
}

func jitteredKNN(rng *rand.Rand, c *corpus) request {
	set := jitter(rng, c.sets[rng.Intn(len(c.sets))], querySD)
	return request{op: opKNN, bucket: -1, path: "/knn", set: set,
		body: mustJSON(setQuery{Set: set, K: knnK})}
}

// zipfIDs draws corpus ids with Zipf(s) popularity. Rank r maps to id
// perm[r], so the hot objects are spread over the id space (and therefore
// over the shards) instead of being the first parts generated.
type zipfIDs struct {
	z    *rand.Zipf
	perm []int
}

func newZipfIDs(rng *rand.Rand, seed int64, n int) *zipfIDs {
	return &zipfIDs{
		z:    rand.NewZipf(rng, zipfS, 1, uint64(n-1)),
		perm: rand.New(rand.NewSource(seed ^ 0x7a697066)).Perm(n), // "zipf"
	}
}

func (z *zipfIDs) next() uint64 { return uint64(z.perm[z.z.Uint64()]) }

// genShardedCached: by-id requests with Zipf-skewed ids — 60 % /knn, 25 %
// /range at one of three calibrated radii, 15 % /knn/batch of 16.
func genShardedCached(seed int64, c *corpus, sz sizes) (*requestSet, error) {
	calib, err := calibrateRange(seed, c, sz)
	if err != nil {
		return nil, err
	}
	rs := &requestSet{calib: calib}
	for conn := range rs.lists {
		rng := connRNG(seed, "sharded-cached", conn)
		ids := newZipfIDs(rng, seed, len(c.sets))
		list := make([]request, sz.listLen)
		for i := range list {
			switch u := rng.Float64(); {
			case u < 0.60:
				id := ids.next()
				list[i] = request{op: opKNN, bucket: -1, path: "/knn", ids: []uint64{id},
					body: mustJSON(idQuery{ID: id, K: knnK})}
			case u < 0.85:
				id, b := ids.next(), rng.Intn(3)
				eps := calib.Eps[b]
				list[i] = request{op: opRange, bucket: int8(b), path: "/range", ids: []uint64{id}, eps: eps,
					body: mustJSON(idQuery{ID: id, Eps: &eps})}
			default:
				var q struct {
					Queries []idQuery `json:"queries"`
				}
				batch := make([]uint64, batchSize)
				for j := range batch {
					batch[j] = ids.next()
					q.Queries = append(q.Queries, idQuery{ID: batch[j], K: knnK})
				}
				list[i] = request{op: opBatch, bucket: -1, path: "/knn/batch", ids: batch, body: mustJSON(q)}
			}
		}
		rs.lists[conn] = list
	}
	return rs, nil
}

// calibrateRange derives the three radii from the corpus by result-set
// size (arXiv 2403.10746: a pooled range latency is dominated by the
// near-empty majority, so report by size bucket). A range query by a stored
// object returns s objects exactly when ε reaches its s-th nearest
// neighbour, self included, so the radius at which the *median* query
// returns s is the median s-nn distance over a sample of stored objects —
// the fixed point a bisection on ε would converge to, read off the 101-nn
// lists directly. The sample is uniform over the corpus, not drawn by
// popularity: a quarter of a Zipf(1.3) sample is one object, the radii then
// follow whichever objects the seed made popular (ε₂ ran from 19.6 to 28.7
// over ten seeds, the b2 p50 from 0.64 to 1.17 ms), and the popular objects
// are answered from the cache anyway — the queries that cost are the tail.
func calibrateRange(seed int64, c *corpus, sz sizes) (*calibration, error) {
	db, err := openInProcess(c)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	targets := [3]int{1, 10, 100}
	const depth = 101
	if len(c.sets) < depth {
		return nil, fmt.Errorf("corpus of %d objects is too small to calibrate a %d-result bucket", len(c.sets), targets[2])
	}
	rng := connRNG(seed, "calibrate", 0)
	lists := make([][]vsdb.Neighbor, sz.calib)
	sample := make([]uint64, sz.calib)
	for i := range sample {
		sample[i] = uint64(rng.Intn(len(c.sets)))
	}
	parallel.ForEach(len(sample), runtime.GOMAXPROCS(0), func(i int) {
		lists[i] = db.KNN(c.sets[sample[i]], depth)
	})
	nth := func(s int) float64 {
		d := make([]float64, len(lists))
		for i, l := range lists {
			d[i] = l[s-1].Dist
		}
		return median(d)
	}
	cal := &calibration{Targets: targets, Queries: sz.calib}
	// "Self only": half the distance at which the median query meets its
	// first other object.
	cal.Eps[0] = nth(2) / 2
	cal.Eps[1] = nth(targets[1])
	cal.Eps[2] = nth(targets[2])
	for b, eps := range cal.Eps {
		sizes := make([]float64, len(lists))
		for i, l := range lists {
			sizes[i] = float64(sort.Search(len(l), func(j int) bool { return l[j].Dist > eps }))
		}
		q1, q3 := quartiles(sizes)
		cal.SampleSizes[b] = [3]int{int(q1), int(median(sizes)), int(q3)}
	}
	return cal, nil
}

// openInProcess loads the corpus into a heap vsdb database — the engine
// the harness uses for calibration, never the one being measured.
func openInProcess(c *corpus) (*vsdb.DB, error) {
	db, err := vsdb.Open(vsdb.Config{Dim: coverDim, MaxCard: coverK})
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(c.sets))
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := db.BulkInsert(ids, c.sets); err != nil {
		return nil, err
	}
	return db, nil
}

// genWriteMix: 70 % /knn by jittered set, 20 % /insert of a fresh id, 5 %
// /delete of an id the same connection inserted at least deleteAge ops
// earlier, 5 % GET /object of its latest insert. Each connection's list
// refers only to its own inserts, and a connection sends in list order, so
// every delete and object read follows the ack of the insert it names.
// Where no insert is old (or recent) enough yet, the slot is a /knn.
func genWriteMix(seed int64, c *corpus, sz sizes) *requestSet {
	rs := &requestSet{}
	for conn := range rs.lists {
		rng := connRNG(seed, "write-mix", conn)
		list := make([]request, sz.listLen)
		base := uint64(insertIDBase + conn*insertIDConn)
		type ins struct {
			id  uint64
			pos int
		}
		var pending []ins // inserted, not yet deleted, oldest first
		var inserts uint64
		for i := range list {
			u := rng.Float64()
			switch {
			case u < 0.70:
				list[i] = jitteredKNN(rng, c)
			case u < 0.90:
				set := jitter(rng, c.sets[rng.Intn(len(c.sets))], querySD)
				id := base + inserts
				inserts++
				pending = append(pending, ins{id, i})
				list[i] = request{op: opInsert, bucket: -1, path: "/insert", id: id, set: set, body: mustJSON(set)}
			case u < 0.95 && len(pending) > 0 && i-pending[0].pos >= deleteAge:
				list[i] = request{op: opDelete, bucket: -1, path: "/delete", id: pending[0].id}
				pending = pending[1:]
			case u >= 0.95 && len(pending) > 0 && i-pending[len(pending)-1].pos < deleteAge:
				list[i] = request{op: opObject, bucket: -1, id: pending[len(pending)-1].id}
			default:
				list[i] = jitteredKNN(rng, c)
			}
		}
		rs.lists[conn] = list
		if inserts > rs.stride {
			rs.stride = inserts
		}
	}
	return rs
}

// genMeshUpload: every request uploads one of sz.meshes binary STL surface
// meshes — generated parts that are not in the corpus (a different
// generator stream), voxelized at r = 30 so the body is a few hundred KB
// and parse + voxelize + extract outweigh the search. Each connection
// walks its own shuffle of the meshes.
func genMeshUpload(seed int64, sz sizes) (*requestSet, error) {
	// A few parts in a thousand are degenerate (no voxels, so no surface);
	// an eighth more than needed are generated and the empty ones dropped.
	spare := sz.meshes + sz.meshes/8 + 1
	parts := cadgen.AircraftDataset(seed^0x6d657368, spare) // "mesh"
	stl := make([][]byte, len(parts))
	errs := make([]error, len(parts))
	parallel.ForEach(len(parts), runtime.GOMAXPROCS(0), func(i int) {
		g, _ := normalize.VoxelizeNormalized(parts[i].Solid, meshRes)
		m := voxel.ToMesh(g, parts[i].Name)
		if len(m.Triangles) == 0 {
			return
		}
		var buf bytes.Buffer
		errs[i] = mesh.WriteSTL(&buf, m)
		stl[i] = buf.Bytes()
	})
	rs := &requestSet{}
	for i, body := range stl {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if body != nil && len(rs.meshes) < sz.meshes {
			rs.meshes = append(rs.meshes, body)
		}
	}
	if len(rs.meshes) < sz.meshes {
		return nil, fmt.Errorf("only %d of %d generated parts have a surface", len(rs.meshes), sz.meshes)
	}
	path := "/query/mesh?k=" + strconv.Itoa(knnK)
	for conn := range rs.lists {
		rng := connRNG(seed, "mesh-upload", conn)
		list := make([]request, 0, sz.listLen)
		for len(list) < sz.listLen {
			for _, m := range rng.Perm(len(rs.meshes)) {
				list = append(list, request{op: opMesh, bucket: -1, path: path, mesh: m, body: rs.meshes[m]})
			}
		}
		rs.lists[conn] = list[:sz.listLen]
	}
	return rs, nil
}
