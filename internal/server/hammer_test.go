package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/voxset/voxset/internal/vsdb"
)

// TestServeMutationHammer is the race hammer for the live-update engine:
// concurrent inserters, deleters, a compactor and query clients all go
// through the HTTP layer while the server is gracefully shut down
// mid-storm. Queries race real compactions (MaxDelta is tiny) and real
// WAL appends. During the storm every 200 query response must be
// structurally sound (sorted, deduplicated, finite, within bounds);
// after quiescence the surviving database must agree bit for bit with a
// brute-force scan AND with a fresh database replayed from its WAL.
// Run with -race (make check-race).
func TestServeMutationHammer(t *testing.T) {
	dir := t.TempDir()
	db, err := vsdb.Open(vsdb.Config{
		Dim:     3,
		MaxCard: 4,
		// Tiny delta threshold: the storm crosses many auto-compactions.
		MaxDelta:  32,
		WALPath:   filepath.Join(dir, "hammer.wal"),
		WALNoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	seedIDs := make([]uint64, 40)
	seedSets := make([][][]float64, 40)
	for i := range seedIDs {
		seedIDs[i] = uint64(i)
		seedSets[i] = [][]float64{{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}}
	}
	if err := db.BulkInsert(seedIDs, seedSets); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DB: db, Workers: 4, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, l, 5*time.Second) }()

	var (
		wg       sync.WaitGroup
		served   atomic.Int64
		mutated  atomic.Int64
		refused  atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
	)
	fail := func(format string, args ...interface{}) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	client := &http.Client{Timeout: 5 * time.Second}
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	post := func(path string, body interface{}) (int, []byte, bool) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0, nil, false
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			refused.Add(1) // listener gone: expected once shutdown starts
			return 0, nil, false
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.Bytes(), true
	}

	// Mutator clients: each owns a disjoint id range, inserting fresh ids
	// and deleting its own earlier inserts. Refused requests are fine
	// (shutdown races); 5xx responses and wrong statuses are not.
	const mutators = 5
	for c := 0; c < mutators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			var mine []uint64 // ids this client definitely inserted
			for i := 0; !stopped(); i++ {
				if len(mine) > 0 && rng.Intn(2) == 0 {
					id := mine[len(mine)-1]
					code, body, ok := post("/delete", MutateRequest{ID: id})
					if !ok {
						continue
					}
					// 404 can happen only if our own insert was lost.
					if code != http.StatusOK {
						fail("mutator %d: delete(%d) status %d: %s", c, id, code, body)
						continue
					}
					mine = mine[:len(mine)-1]
					mutated.Add(1)
					continue
				}
				id := uint64(10000 + c*100000 + i)
				set := [][]float64{{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}}
				code, body, ok := post("/insert", MutateRequest{ID: id, Set: set})
				if !ok {
					continue
				}
				if code != http.StatusOK {
					fail("mutator %d: insert(%d) status %d: %s", c, id, code, body)
					continue
				}
				mine = append(mine, id)
				mutated.Add(1)
			}
		}(c)
	}

	// Compactor client: forces rebuilds to overlap queries and shutdown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			if code, body, ok := post("/compact", struct{}{}); ok && code != http.StatusOK {
				fail("compact status %d: %s", code, body)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Query clients: the database mutates under them, so exact answers
	// cannot be pinned — structural soundness can. Sorted by (dist, id),
	// no duplicates, finite distances, k/eps bounds respected.
	checkSound := func(c int, kind string, nbs []Neighbor, k int, eps float64) {
		seen := map[uint64]bool{}
		for i, nb := range nbs {
			if math.IsNaN(nb.Dist) || math.IsInf(nb.Dist, 0) || nb.Dist < 0 {
				fail("query client %d: %s returned dist %v", c, kind, nb.Dist)
				return
			}
			if seen[nb.ID] {
				fail("query client %d: %s returned id %d twice", c, kind, nb.ID)
				return
			}
			seen[nb.ID] = true
			if i > 0 && (nb.Dist < nbs[i-1].Dist || (nb.Dist == nbs[i-1].Dist && nb.ID <= nbs[i-1].ID)) {
				fail("query client %d: %s results out of (dist,id) order at %d: %+v", c, kind, i, nbs)
				return
			}
			if kind == "range" && nb.Dist > eps {
				fail("query client %d: range returned dist %v > eps %v", c, nb.Dist, eps)
				return
			}
		}
		if kind == "knn" && len(nbs) > k {
			fail("query client %d: knn returned %d > k=%d results", c, len(nbs), k)
		}
	}
	const queryClients = 6
	for c := 0; c < queryClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + c)))
			for !stopped() {
				q := [][]float64{{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}}
				var code int
				var body []byte
				var ok bool
				kind := "knn"
				k, eps := 1+rng.Intn(8), rng.Float64()*3
				if rng.Intn(3) == 0 {
					kind = "range"
					code, body, ok = post("/range", QueryRequest{Set: q, Eps: eps})
				} else {
					code, body, ok = post("/knn", QueryRequest{Set: q, K: k})
				}
				if !ok {
					continue
				}
				if code != http.StatusOK {
					refused.Add(1) // e.g. 503 during drain
					continue
				}
				var qr QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					fail("query client %d: decode: %v", c, err)
					continue
				}
				checkSound(c, kind, qr.Neighbors, k, eps)
				served.Add(1)
			}
		}(c)
	}

	// Let the storm build, then pull the plug while everything is
	// mid-flight (mutations, compactions and queries all racing drain).
	deadline := time.Now().Add(5 * time.Second)
	for (served.Load() < 100 || mutated.Load() < 100) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v, want nil on clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Serve did not return after shutdown")
	}
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d protocol/soundness failures; first: %s", failures.Load(), firstErr.Load())
	}
	if served.Load() < 100 || mutated.Load() < 100 {
		t.Fatalf("storm too small: %d queries, %d mutations", served.Load(), mutated.Load())
	}

	// Post-quiescence parity #1: the index answers exactly like a brute
	// force scan over its own surviving contents.
	ids := db.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	brute := func(q [][]float64, k int) []Neighbor {
		out := make([]Neighbor, 0, len(ids))
		for _, id := range ids {
			out = append(out, Neighbor{ID: id, Dist: db.Distance(q, db.Get(id))})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Dist != out[j].Dist {
				return out[i].Dist < out[j].Dist
			}
			return out[i].ID < out[j].ID
		})
		if k > len(out) {
			k = len(out)
		}
		return out[:k]
	}
	toServer := func(nbs []vsdb.Neighbor) []Neighbor {
		out := make([]Neighbor, len(nbs))
		for i, nb := range nbs {
			out[i] = Neighbor{ID: nb.ID, Dist: nb.Dist}
		}
		return out
	}
	checkRng := rand.New(rand.NewSource(5))
	queries := make([][][]float64, 20)
	for i := range queries {
		queries[i] = [][]float64{{checkRng.NormFloat64(), checkRng.NormFloat64(), checkRng.NormFloat64()}}
	}
	for _, q := range queries {
		if got, want := toServer(db.KNN(q, 10)), brute(q, 10); !sameNeighbors(got, want) {
			t.Fatalf("post-storm KNN diverges from brute force:\n got %+v\nwant %+v", got, want)
		}
	}

	// Post-quiescence parity #2: every applied mutation was WAL-durable
	// before it was acknowledged, so a fresh database replayed from the
	// WAL must answer identically.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := vsdb.Open(vsdb.Config{
		Dim: 3, MaxCard: 4, MaxDelta: 32,
		WALPath: filepath.Join(dir, "hammer.wal"), WALNoSync: true,
	})
	if err != nil {
		t.Fatalf("replay after storm: %v", err)
	}
	defer re.Close()
	if re.Len() != len(ids) || re.Epoch() != db.Epoch() {
		t.Fatalf("replayed db: %d objects epoch %d, live had %d objects epoch %d",
			re.Len(), re.Epoch(), len(ids), db.Epoch())
	}
	for _, q := range queries {
		if got, want := toServer(re.KNN(q, 10)), toServer(db.KNN(q, 10)); !sameNeighbors(got, want) {
			t.Fatalf("WAL-replayed KNN diverges from live:\n got %+v\nwant %+v", got, want)
		}
	}
	t.Logf("storm: %d queries, %d mutations, %d refused, %d compactions, final %d objects",
		served.Load(), mutated.Load(), refused.Load(), db.Stats().Compactions, len(ids))
}
