// Beyond CAD: the paper's conclusion announces "a more general system for
// managing vector-set-represented objects" targeting applications such as
// image retrieval. This example uses the generic vector set database to
// search synthetic images represented as sets of color-region signatures
// — each region a 6-d vector (x, y, relative size, r, g, b) — under the
// minimal matching distance. Regions of two images are matched freely,
// exactly like covers of two CAD parts.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/voxset/voxset/internal/vsdb"
)

// scene is a parametric image family: a set of color regions with jitter.
type scene struct {
	name    string
	regions [][6]float64 // x, y, size, r, g, b in [0,1]
}

var scenes = []scene{
	{"sunset", [][6]float64{
		{0.5, 0.2, 0.4, 0.95, 0.55, 0.15}, // orange sky
		{0.5, 0.45, 0.2, 0.99, 0.85, 0.4}, // sun band
		{0.5, 0.8, 0.4, 0.15, 0.1, 0.25},  // dark sea
	}},
	{"forest", [][6]float64{
		{0.5, 0.3, 0.5, 0.1, 0.45, 0.15}, // canopy
		{0.5, 0.75, 0.3, 0.3, 0.2, 0.1},  // trunks/ground
		{0.2, 0.1, 0.1, 0.6, 0.8, 0.95},  // sky gap
	}},
	{"portrait", [][6]float64{
		{0.5, 0.4, 0.25, 0.9, 0.75, 0.65}, // face
		{0.5, 0.8, 0.3, 0.3, 0.3, 0.5},    // clothing
		{0.5, 0.15, 0.35, 0.7, 0.7, 0.75}, // backdrop
		{0.5, 0.32, 0.05, 0.4, 0.25, 0.2}, // hair
	}},
	{"beach", [][6]float64{
		{0.5, 0.25, 0.4, 0.5, 0.75, 0.95}, // sky
		{0.5, 0.55, 0.25, 0.2, 0.55, 0.8}, // sea
		{0.5, 0.85, 0.3, 0.93, 0.87, 0.7}, // sand
	}},
}

// render jitters a scene into one concrete image signature. Region count
// varies: some images gain an extra incidental region — the unmatched-
// element case the weight function handles.
func render(s scene, rng *rand.Rand) [][]float64 {
	var set [][]float64
	for _, r := range s.regions {
		v := make([]float64, 6)
		for i, x := range r {
			v[i] = clamp01(x + rng.NormFloat64()*0.04)
		}
		set = append(set, v)
	}
	if rng.Float64() < 0.3 { // incidental object (bird, boat, …)
		set = append(set, []float64{
			rng.Float64(), rng.Float64(), 0.05,
			rng.Float64(), rng.Float64(), rng.Float64(),
		})
	}
	return set
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(11))

	db, err := vsdb.Open(vsdb.Config{Dim: 6, MaxCard: 5})
	if err != nil {
		log.Fatal(err)
	}

	// Index 200 images, 50 per scene family.
	labels := map[uint64]string{}
	id := uint64(0)
	for _, s := range scenes {
		for i := 0; i < 50; i++ {
			if err := db.Insert(id, render(s, rng)); err != nil {
				log.Fatal(err)
			}
			labels[id] = s.name
			id++
		}
	}
	fmt.Printf("indexed %d images in %d scene families\n\n", db.Len(), len(scenes))

	// Query with fresh renders of each scene.
	correctAt5 := 0
	for _, s := range scenes {
		q := render(s, rng)
		res := knn(db, q, 5)
		fmt.Printf("query: new %-9s image → nearest: ", s.name)
		hits := 0
		for _, nb := range res {
			fmt.Printf("%s(%.3f) ", labels[nb.ID], nb.Dist)
			if labels[nb.ID] == s.name {
				hits++
			}
		}
		correctAt5 += hits
		fmt.Printf("→ %d/5 same scene\n", hits)
	}
	fmt.Printf("\nprecision@5 over all queries: %.0f%%\n",
		100*float64(correctAt5)/float64(5*len(scenes)))

	// Deletion keeps queries exact.
	for d := uint64(0); d < 25; d++ {
		if err := db.Delete(d); err != nil {
			log.Fatal(err)
		}
	}
	res := knn(db, render(scenes[0], rng), 3)
	fmt.Printf("after deleting half the sunsets, top-3 for a sunset query: ")
	for _, nb := range res {
		fmt.Printf("%s ", labels[nb.ID])
	}
	fmt.Println()
}

// knn answers one exact k-nn query through Search, which reports a
// malformed query instead of answering nil.
func knn(db *vsdb.DB, q [][]float64, k int) []vsdb.Neighbor {
	res, err := db.Search(context.Background(), []vsdb.Query{{Set: q, Kind: vsdb.KNN, K: k}})
	if err != nil {
		log.Fatal(err)
	}
	return res[0]
}
