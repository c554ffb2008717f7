package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Phases a sample can belong to. Only phaseTimed feeds end-to-end metrics.
const (
	phaseWarm uint8 = iota
	phaseTimed
	phaseTraced // closed loop with client-side span recording on
	phaseOpen1
	phaseOpen2
)

// retainEvery spaces the responses kept for the oracle through the timed
// window (a prime, so the kept ones do not lock onto a period of the mix).
const retainEvery = 97

// sample is the client's record of one request.
type sample struct {
	idx    int32 // position in the connection's request list
	cycle  uint32
	phase  uint8
	op     opKind
	bucket int8
	ok     bool  // 2xx and a fully read body
	cached bool  // the response said "cached":true
	size   int32 // neighbours in a /range response
	kept   int32 // index into worker.kept of the retained body, or -1
	sent   int64 // ns since the run's time base
	lat    int64 // ns; open loop: measured from the due time
	late   int64 // open loop: how long after it was due the request went out
}

// span is one traced interval: a rung of the ladder or a client-side stage.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // span ID of the rung above; 0 for a root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// worker is one closed-loop client: one keep-alive connection, one request
// list walked in order across every phase of the run.
type worker struct {
	conn   int
	base   string
	client *http.Client
	dials  *atomic.Int64
	t0     time.Time

	list   []request
	stride uint64
	pos    int
	cycle  uint32

	buf  []byte
	body bytes.Buffer
	log  []sample
	kept [][]byte
	keep int // responses still to retain in the timed phase

	spans []span // phaseTraced only

	failures []string // the first few failed requests, for the report
}

func newWorkers(base string, rs *requestSet, keep int, t0 time.Time) []*worker {
	dials := new(atomic.Int64)
	ws := make([]*worker, conns)
	for i := range ws {
		d := &net.Dialer{}
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		}
		ws[i] = &worker{
			conn: i, base: base, dials: dials, t0: t0,
			client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
			list:   rs.lists[i], stride: rs.stride,
			keep: keep / conns,
		}
	}
	return ws
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.client.CloseIdleConnections()
	}
}

// wire turns a list entry into method, URL path and body. Ids a write-mix
// list assigns are shifted by one stride per completed pass (cycle), so a
// list that is cycled never re-inserts an id.
func (w *worker) wire(r *request, cycle uint32) (method, path string, body []byte) {
	id := r.id + uint64(cycle)*w.stride
	switch r.op {
	case opInsert:
		w.buf = append(w.buf[:0], `{"id":`...)
		w.buf = strconv.AppendUint(w.buf, id, 10)
		w.buf = append(w.buf, `,"set":`...)
		w.buf = append(w.buf, r.body...)
		w.buf = append(w.buf, '}')
		return http.MethodPost, r.path, w.buf
	case opDelete:
		w.buf = append(w.buf[:0], `{"id":`...)
		w.buf = strconv.AppendUint(w.buf, id, 10)
		w.buf = append(w.buf, '}')
		return http.MethodPost, r.path, w.buf
	case opObject:
		return http.MethodGet, "/object/" + strconv.FormatUint(id, 10), nil
	}
	return http.MethodPost, r.path, r.body
}

var (
	cachedTrue = []byte(`"cached":true`)
	idField    = []byte(`"id":`)
)

// send performs one request on the worker's connection and leaves the
// response body in w.body. ok means a 2xx status and a fully read body.
func (w *worker) send(method, path string, body []byte, trace *httptrace.ClientTrace) (ok bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		panic(err) // the method and URL are the harness's own constants
	}
	if trace != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		w.noteFailure(method, path, err.Error())
		return false
	}
	w.body.Reset()
	_, err = w.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		w.noteFailure(method, path, err.Error())
		return false
	}
	if resp.StatusCode/100 != 2 {
		w.noteFailure(method, path, fmt.Sprintf("status %d: %.200s", resp.StatusCode, w.body.Bytes()))
		return false
	}
	return true
}

func (w *worker) noteFailure(method, path, what string) {
	if len(w.failures) < 5 {
		w.failures = append(w.failures, fmt.Sprintf("conn %d %s %s: %s", w.conn, method, path, what))
	}
}

// next takes the worker's next list entry, advancing (and, at the end of
// the list, cycling) its position.
func (w *worker) next() (r *request, idx int, cycle uint32) {
	idx, cycle = w.pos, w.cycle
	if w.pos++; w.pos == len(w.list) {
		w.pos, w.cycle = 0, w.cycle+1
	}
	return &w.list[idx], idx, cycle
}

// do sends the worker's next request and appends its sample. due, when
// non-zero, is the open-loop schedule time the latency is measured from.
func (w *worker) do(phase uint8, due time.Time) {
	r, idx, cycle := w.next()
	method, path, body := w.wire(r, cycle)

	var wrote, first time.Time
	var trace *httptrace.ClientTrace
	if phase == phaseTraced {
		trace = &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}
	}
	start := time.Now()
	s := sample{idx: int32(idx), cycle: cycle, phase: phase, op: r.op, bucket: r.bucket, kept: -1,
		sent: int64(start.Sub(w.t0))}
	s.ok = w.send(method, path, body, trace)
	end := time.Now()
	if due.IsZero() {
		s.lat = int64(end.Sub(start))
	} else {
		s.lat = int64(end.Sub(due))
		s.late = int64(start.Sub(due))
	}
	if s.ok {
		data := w.body.Bytes()
		switch r.op {
		case opKNN:
			s.cached = bytes.Contains(data, cachedTrue)
		case opRange:
			s.cached = bytes.Contains(data, cachedTrue)
			s.size = int32(bytes.Count(data, idField))
		}
		if phase == phaseTimed && w.keep > 0 && len(w.log)%retainEvery == 0 {
			s.kept = int32(len(w.kept))
			w.kept = append(w.kept, append([]byte(nil), data...))
			w.keep--
		}
	}
	if phase == phaseTraced {
		w.recordSpans(len(w.log), r.op, start, wrote, first, end)
	}
	w.log = append(w.log, s)
}

// recordSpans keeps the client-side trace of one request: the round trip
// and, beneath it, send (until the request is written), wait (until the
// first response byte) and recv (until the body is read).
func (w *worker) recordSpans(reqID int, op opKind, start, wrote, first, end time.Time) {
	ns := func(t time.Time) int64 { return int64(t.Sub(w.t0)) }
	root := len(w.spans) + 1
	w.spans = append(w.spans, span{Name: "client." + opNames[op], Request: reqID, ID: root, StartNS: ns(start), EndNS: ns(end)})
	if wrote.IsZero() || first.IsZero() {
		return
	}
	for _, st := range []struct {
		name     string
		from, to time.Time
	}{{"client.send", start, wrote}, {"client.wait", wrote, first}, {"client.recv", first, end}} {
		w.spans = append(w.spans, span{Name: st.name, Request: reqID, ID: len(w.spans) + 1, Parent: root,
			StartNS: ns(st.from), EndNS: ns(st.to)})
	}
}

// runClosed drives every worker in a closed loop — the next request leaves
// when the previous reply has been read — for d.
func runClosed(ws []*worker, d time.Duration, phase uint8) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.do(phase, time.Time{})
			}
		}(w)
	}
	wg.Wait()
}

// runOpen offers rate requests per second for d on a fixed schedule. The
// two connections take the ticks in turn as they become free; a request
// whose tick has passed goes out at once, and its latency counts from the
// tick, so a stall is charged to every request it delayed.
func runOpen(ws []*worker, rate float64, d time.Duration, phase uint8) {
	interval := time.Duration(float64(time.Second) / rate)
	ticks := int64(d / interval)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= ticks {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				w.do(phase, due)
			}
		}(w)
	}
	wg.Wait()
}

// get fetches one URL outside any measured loop.
func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return resp.StatusCode, data, nil
}
