package main

import "testing"

func TestSelfTimesSubtractChildren(t *testing.T) {
	// http(100) → server(70) → {meshquery(20), vsdb(30) → filter(25) → {xtree(5), dist(15)}}
	spans := []span{
		{Name: "http", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "server", ID: 2, Parent: 1, StartNS: 200, EndNS: 270},
		{Name: "meshquery", ID: 3, Parent: 2, StartNS: 300, EndNS: 320},
		{Name: "vsdb", ID: 4, Parent: 2, StartNS: 400, EndNS: 430},
		{Name: "filter", ID: 5, Parent: 4, StartNS: 500, EndNS: 525},
		{Name: "xtree", ID: 6, Parent: 5, StartNS: 600, EndNS: 605},
		{Name: "dist", ID: 7, Parent: 5, StartNS: 700, EndNS: 715},
		// A second request that stopped at the server (a cache hit).
		{Name: "http", ID: 8, StartNS: 800, EndNS: 840},
		{Name: "server", ID: 9, Parent: 8, StartNS: 900, EndNS: 910},
	}
	want := map[int]int64{1: 30, 2: 20, 3: 20, 4: 5, 5: 5, 6: 5, 7: 15, 8: 30, 9: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	// Self times of one request add up to its root's duration.
	var sum int64
	for id := 1; id <= 7; id++ {
		sum += got[id]
	}
	if sum != 100 {
		t.Errorf("self times of request 1 sum to %d, want the http span's 100", sum)
	}
}
