package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/meshquery"
	"github.com/voxset/voxset/internal/parallel"
)

// distTol is how far a served distance may sit from the oracle's.
const distTol = 1e-9

type neighborJSON struct {
	ID   uint64  `json:"id"`
	Dist float64 `json:"dist"`
}

type queryResp struct {
	Neighbors []neighborJSON `json:"neighbors"`
	Set       [][]float64    `json:"set"` // /query/mesh: the extracted query
}

type batchResp struct {
	Results []queryResp `json:"results"`
}

type objectResp struct {
	ID  uint64      `json:"id"`
	Set [][]float64 `json:"set"`
}

// mutation is what the run did to one inserted id, on the run's time base.
type mutation struct {
	set       [][]float64
	insSent   int64
	insAcked  int64 // -1: the insert failed, the object's presence is unknown
	delSent   int64 // -1: never deleted
	delAcked  int64 // -1: not (successfully) deleted
	delFailed bool
}

// timeline replays the workers' logs into the fate of every inserted id.
func timeline(ws []*worker) map[uint64]*mutation {
	muts := map[uint64]*mutation{}
	for _, w := range ws {
		for _, s := range w.log {
			if s.op != opInsert && s.op != opDelete {
				continue
			}
			r := &w.list[s.idx]
			id := r.id + uint64(s.cycle)*w.stride
			if s.op == opInsert {
				m := &mutation{set: r.set, insSent: s.sent, insAcked: -1, delSent: -1, delAcked: -1}
				if s.ok {
					m.insAcked = s.sent + s.lat
				}
				muts[id] = m
				continue
			}
			// A connection sends in list order, so the insert is already here.
			m := muts[id]
			m.delSent = s.sent
			if s.ok {
				m.delAcked = s.sent + s.lat
			} else {
				m.delFailed = true
			}
		}
	}
	return muts
}

// visibility splits the inserted objects, for a read sent at `sent` and
// answered at `done`, into those the answer must account for (acked before
// the read left, not yet being deleted when it returned) and those it may
// (anything whose lifetime overlaps the read at all).
func visibility(muts map[uint64]*mutation, sent, done int64) (must, may map[uint64][][]float64) {
	must, may = map[uint64][][]float64{}, map[uint64][][]float64{}
	for id, m := range muts {
		if m.insSent > done || (m.delAcked >= 0 && m.delAcked < sent) {
			continue
		}
		may[id] = m.set
		if m.insAcked >= 0 && m.insAcked <= sent && (m.delSent < 0 || m.delSent >= done) {
			must[id] = m.set
		}
	}
	return must, may
}

func matching(a, b [][]float64) float64 {
	return dist.MatchingDistance(a, b, dist.L2, dist.WeightNorm)
}

// lessNeighbor is the engine's result order: by distance, then id.
func lessNeighbor(a, b neighborJSON) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// checkResult re-derives one query's answer by brute force — every stored
// object's minimal matching distance to the query — and reports the first
// way the served answer differs from it. k > 0 checks a k-nn answer,
// otherwise an ε-range answer. With no concurrent mutations (must and may
// empty) passing means the served list is the brute-force list: same ids,
// same order, distances within distTol — up to the order of, and the choice
// among, objects tied within distTol.
func checkResult(c *corpus, query [][]float64, k int, eps float64, got []neighborJSON,
	must, may map[uint64][][]float64) error {
	lookup := func(id uint64) [][]float64 {
		if id < uint64(len(c.sets)) {
			return c.sets[id]
		}
		return may[id]
	}
	inResult := make(map[uint64]struct{}, len(got))
	for i, nb := range got {
		set := lookup(nb.ID)
		if set == nil {
			return fmt.Errorf("neighbor %d: id %d is not a stored object", i, nb.ID)
		}
		if _, dup := inResult[nb.ID]; dup {
			return fmt.Errorf("neighbor %d: id %d listed twice", i, nb.ID)
		}
		inResult[nb.ID] = struct{}{}
		if want := matching(query, set); math.Abs(want-nb.Dist) > distTol {
			return fmt.Errorf("neighbor %d (id %d): served distance %.12g, brute force %.12g", i, nb.ID, nb.Dist, want)
		}
		if i > 0 && lessNeighbor(nb, got[i-1]) {
			return fmt.Errorf("neighbor %d (id %d) sorts before its predecessor", i, nb.ID)
		}
		if k <= 0 && nb.Dist > eps+distTol {
			return fmt.Errorf("neighbor %d (id %d) at %.12g lies outside eps %.12g", i, nb.ID, nb.Dist, eps)
		}
	}
	if k > 0 && len(got) != k {
		return fmt.Errorf("%d neighbors served, want %d", len(got), k)
	}
	// Completeness: nothing left out may beat what was served.
	missed := func(id uint64, set [][]float64) error {
		if _, ok := inResult[id]; ok {
			return nil
		}
		d := matching(query, set)
		if k > 0 {
			worst := got[len(got)-1]
			// An object tied with the served k-th to within distTol may
			// legitimately be either side of the cut: cover features sit
			// on a half-voxel lattice, exact ties are common, and the
			// engine's kernel and this one may round them differently.
			if d < worst.Dist-distTol {
				return fmt.Errorf("id %d at %.12g is missing but beats the served k-th (id %d at %.12g)", id, d, worst.ID, worst.Dist)
			}
		} else if d < eps-distTol {
			return fmt.Errorf("id %d at %.12g is missing from the eps %.12g result", id, d, eps)
		}
		return nil
	}
	for id, set := range c.sets {
		if err := missed(uint64(id), set); err != nil {
			return err
		}
	}
	for id, set := range must {
		if err := missed(id, set); err != nil {
			return err
		}
	}
	return nil
}

func setsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkSample verifies one retained response against the oracle.
func checkSample(c *corpus, rs *requestSet, w *worker, s sample, muts map[uint64]*mutation) error {
	r := &w.list[s.idx]
	data := w.kept[s.kept]
	must, may := visibility(muts, s.sent, s.sent+s.lat)
	query := r.set
	if len(r.ids) == 1 {
		query = c.sets[r.ids[0]]
	}
	switch r.op {
	case opKNN, opRange:
		var resp queryResp
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		k := knnK
		if r.op == opRange {
			k = 0
		}
		return checkResult(c, query, k, r.eps, resp.Neighbors, must, may)
	case opBatch:
		var resp batchResp
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(r.ids) {
			return fmt.Errorf("%d batch results for %d queries", len(resp.Results), len(r.ids))
		}
		for i, id := range r.ids {
			if err := checkResult(c, c.sets[id], knnK, 0, resp.Results[i].Neighbors, must, may); err != nil {
				return fmt.Errorf("entry %d: %w", i, err)
			}
		}
	case opMesh:
		var resp queryResp
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		m, err := mesh.ReadSTL(bytes.NewReader(rs.meshes[r.mesh]))
		if err != nil {
			return err
		}
		ex, err := meshquery.Extract(m, meshquery.Config{RCover: coverRes, Covers: coverK})
		if err != nil {
			return err
		}
		if !setsEqual(ex.Set, resp.Set) {
			return fmt.Errorf("served query set differs from the offline extraction of mesh %d", r.mesh)
		}
		return checkResult(c, ex.Set, knnK, 0, resp.Neighbors, must, may)
	case opObject:
		var resp objectResp
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		id := r.id + uint64(s.cycle)*w.stride
		if m := muts[id]; resp.ID != id || m == nil || !setsEqual(resp.Set, m.set) {
			return fmt.Errorf("object %d read back differs from what was inserted", id)
		}
	}
	return nil
}

// runOracle checks every retained response and returns one message per
// mismatch.
func runOracle(c *corpus, rs *requestSet, ws []*worker, muts map[uint64]*mutation) (checked int, mismatches []string) {
	type job struct {
		w *worker
		s sample
	}
	var jobs []job
	for _, w := range ws {
		for _, s := range w.log {
			if s.kept >= 0 {
				jobs = append(jobs, job{w, s})
			}
		}
	}
	errs := make([]error, len(jobs))
	parallel.ForEach(len(jobs), runtime.GOMAXPROCS(0), func(i int) {
		errs[i] = checkSample(c, rs, jobs[i].w, jobs[i].s, muts)
	})
	for i, err := range errs {
		if err != nil {
			j := jobs[i]
			mismatches = append(mismatches, fmt.Sprintf("conn %d request %d (%s): %v", j.w.conn, j.s.idx, opNames[j.s.op], err))
		}
	}
	return len(jobs), mismatches
}

// checkDurability runs against the server restarted after SIGKILL: every
// acknowledged insert that was not deleted must read back exactly, every
// acknowledged delete must be gone. Mutations whose request failed are
// skipped — they were already counted as failed operations.
func checkDurability(base string, muts map[uint64]*mutation) (checked int, mismatches []string) {
	type verdict struct {
		id  uint64
		msg string
	}
	ids := make([]uint64, 0, len(muts))
	for id, m := range muts {
		if m.insAcked >= 0 && !m.delFailed {
			ids = append(ids, id)
		}
	}
	out := make([]verdict, len(ids))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for i := c; i < len(ids); i += conns {
				id, m := ids[i], muts[ids[i]]
				out[i].id = id
				resp, err := client.Get(base + "/object/" + strconv.FormatUint(id, 10))
				if err != nil {
					out[i].msg = err.Error()
					continue
				}
				var body objectResp
				derr := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				switch {
				case m.delAcked >= 0:
					if resp.StatusCode != http.StatusNotFound {
						out[i].msg = fmt.Sprintf("acked delete still answers %d", resp.StatusCode)
					}
				case resp.StatusCode != http.StatusOK || derr != nil:
					out[i].msg = fmt.Sprintf("acked insert answers %d after restart", resp.StatusCode)
				case !setsEqual(body.Set, m.set):
					out[i].msg = "acked insert reads back a different set after restart"
				}
			}
		}(c)
	}
	wg.Wait()
	for _, v := range out {
		if v.msg != "" {
			mismatches = append(mismatches, fmt.Sprintf("object %d: %s", v.id, v.msg))
		}
	}
	return len(ids), mismatches
}
