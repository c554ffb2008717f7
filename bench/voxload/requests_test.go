package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"
)

// testCorpus is built once: extraction is the slow part of every test here.
var testCorpus = buildCorpus(7, smokeSizes)

func testSizes() sizes {
	sz := smokeSizes
	sz.listLen = 20000 // long enough for 1 % proportion checks
	return sz
}

// digest hashes everything a request list puts on the wire, in order.
func digest(rs *requestSet) [32]byte {
	h := sha256.New()
	for _, list := range rs.lists {
		for i := range list {
			r := &list[i]
			h.Write([]byte{byte(r.op), byte(r.bucket)})
			h.Write([]byte(r.path))
			h.Write(r.body)
			binary.Write(h, binary.LittleEndian, r.id)
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func generateFor(t *testing.T, name string, seed int64, c *corpus, sz sizes) *requestSet {
	t.Helper()
	rs, err := generate(runConfig{wl: findWorkload(name), seed: seed, sz: sz}, c)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestSameSeedSameBytes(t *testing.T) {
	sz := smokeSizes
	for _, wl := range workloads {
		a := digest(generateFor(t, wl.name, 7, testCorpus, sz))
		b := digest(generateFor(t, wl.name, 7, testCorpus, sz))
		c := digest(generateFor(t, wl.name, 8, testCorpus, sz))
		if a != b {
			t.Errorf("%s: the same seed generated different request lists", wl.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated identical request lists", wl.name)
		}
	}
}

func TestCorpusIsDeterministic(t *testing.T) {
	again := buildCorpus(7, smokeSizes)
	if len(again.sets) != len(testCorpus.sets) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(again.sets), len(testCorpus.sets))
	}
	for i := range again.sets {
		if !setsEqual(again.sets[i], testCorpus.sets[i]) {
			t.Fatalf("object %d differs between two builds from one seed", i)
		}
	}
	other := buildCorpus(8, smokeSizes)
	same := len(other.sets) == len(testCorpus.sets)
	for i := 0; same && i < len(other.sets); i++ {
		same = setsEqual(other.sets[i], testCorpus.sets[i])
	}
	if same {
		t.Error("seeds 7 and 8 built the same corpus")
	}
}

func shares(rs *requestSet) (byOp [numOps]float64, byBucket [3]float64) {
	total, ranges := 0.0, 0.0
	for _, list := range rs.lists {
		for _, r := range list {
			byOp[r.op]++
			total++
			if r.op == opRange {
				byBucket[r.bucket]++
				ranges++
			}
		}
	}
	for i := range byOp {
		byOp[i] /= total
	}
	for i := range byBucket {
		byBucket[i] /= ranges
	}
	return byOp, byBucket
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f ± %.3f", what, got, want, tol)
	}
}

func TestShardedCachedMix(t *testing.T) {
	rs := generateFor(t, "sharded-cached", 7, testCorpus, testSizes())
	byOp, byBucket := shares(rs)
	within(t, "knn share", byOp[opKNN], 0.60, 0.01)
	within(t, "range share", byOp[opRange], 0.25, 0.01)
	within(t, "batch share", byOp[opBatch], 0.15, 0.01)
	for b, s := range byBucket {
		within(t, "range bucket share", s, 1.0/3, 0.02)
		_ = b
	}
	for _, list := range rs.lists {
		for _, r := range list {
			if r.op == opBatch && len(r.ids) != batchSize {
				t.Fatalf("a batch carries %d ids, want %d", len(r.ids), batchSize)
			}
		}
	}
	if rs.calib.Eps[0] <= 0 || rs.calib.Eps[0] >= rs.calib.Eps[1] || rs.calib.Eps[1] >= rs.calib.Eps[2] {
		t.Errorf("calibrated radii are not increasing: %v", rs.calib.Eps)
	}
	if rs.calib.SampleSizes[0][1] != 1 {
		t.Errorf("bucket 0 median result size on the sample = %d, want 1 (self only)", rs.calib.SampleSizes[0][1])
	}
}

// The generator's id popularity must follow Zipf(s = zipfS, v = 1): the share
// of draws landing on the most popular rank, and on the top ten, within 1 %.
func TestZipfProportions(t *testing.T) {
	const n, draws = 2000, 200000
	z := newZipfIDs(connRNG(3, "zipf-test", 0), 3, n)
	rankOf := make([]int, n)
	for rank, id := range z.perm {
		rankOf[id] = rank
	}
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[rankOf[z.next()]]++
	}
	var norm float64
	for k := 0; k < n; k++ {
		norm += math.Pow(1+float64(k), -zipfS)
	}
	var top10, want10 float64
	for k := 0; k < 10; k++ {
		top10 += float64(counts[k]) / draws
		want10 += math.Pow(1+float64(k), -zipfS) / norm
	}
	within(t, "share of rank 0", float64(counts[0])/draws, 1/norm, 0.01)
	within(t, "share of the top 10 ranks", top10, want10, 0.01)
}

func TestWriteMixListIsSelfConsistent(t *testing.T) {
	rs := generateFor(t, "write-mix", 7, testCorpus, testSizes())
	byOp, _ := shares(rs)
	within(t, "insert share", byOp[opInsert], 0.20, 0.01)
	within(t, "delete share", byOp[opDelete], 0.05, 0.01)
	within(t, "object share", byOp[opObject], 0.05, 0.01)
	within(t, "knn share", byOp[opKNN], 0.70, 0.01)
	seen := map[uint64]bool{}
	for conn, list := range rs.lists {
		insertedAt := map[uint64]int{}
		deleted := map[uint64]bool{}
		for i, r := range list {
			switch r.op {
			case opInsert:
				if r.id < insertIDBase || seen[r.id] {
					t.Fatalf("conn %d op %d inserts id %d: inside the corpus or already used", conn, i, r.id)
				}
				seen[r.id] = true
				insertedAt[r.id] = i
			case opDelete:
				at, ok := insertedAt[r.id]
				if !ok || deleted[r.id] || i-at < deleteAge {
					t.Fatalf("conn %d op %d deletes id %d: not this connection's, already deleted, or younger than %d ops", conn, i, r.id, deleteAge)
				}
				deleted[r.id] = true
			case opObject:
				if _, ok := insertedAt[r.id]; !ok || deleted[r.id] {
					t.Fatalf("conn %d op %d reads id %d, which is not live", conn, i, r.id)
				}
			}
		}
		if uint64(len(insertedAt)) > rs.stride {
			t.Errorf("conn %d makes %d inserts per pass but the id stride is %d", conn, len(insertedAt), rs.stride)
		}
	}
}

func TestWireShiftsIdsPerCycle(t *testing.T) {
	w := &worker{stride: 1000}
	ins := &request{op: opInsert, path: "/insert", id: 1_000_005, body: []byte(`[[1,2]]`)}
	if _, _, body := w.wire(ins, 0); string(body) != `{"id":1000005,"set":[[1,2]]}` {
		t.Errorf("cycle 0 insert body = %s", body)
	}
	if _, _, body := w.wire(ins, 3); string(body) != `{"id":1003005,"set":[[1,2]]}` {
		t.Errorf("cycle 3 insert body = %s", body)
	}
	if method, path, _ := w.wire(&request{op: opObject, id: 1_000_005}, 2); method != "GET" || path != "/object/1002005" {
		t.Errorf("cycle 2 object read = %s %s", method, path)
	}
}

func TestMeshUploadBodies(t *testing.T) {
	rs := generateFor(t, "mesh-upload", 7, testCorpus, smokeSizes)
	if len(rs.meshes) != smokeSizes.meshes {
		t.Fatalf("%d meshes, want %d", len(rs.meshes), smokeSizes.meshes)
	}
	for i, m := range rs.meshes {
		// Binary STL: 80-byte header, uint32 count, 50 bytes per triangle.
		if len(m) < 84+50 || (len(m)-84)%50 != 0 {
			t.Errorf("mesh %d is %d bytes: not a non-empty binary STL", i, len(m))
		}
	}
}
