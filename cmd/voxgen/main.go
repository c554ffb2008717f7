// Command voxgen generates the synthetic CAD datasets (DESIGN.md §3) and
// writes a manifest plus optional artifacts: voxel-occupancy dumps and
// binary STL meshes of the greedy cover approximations.
//
// Usage:
//
//	voxgen -dataset car -out ./data
//	voxgen -dataset aircraft -n 5000 -seed 7 -out ./data -stl -vox
//	voxgen -dataset car -snapshot ./data/car.vsnap   # build a paged voxserve database
//
// Streaming mode builds arbitrarily large sharded snapshot directories
// with memory bounded by the batch size — parts are generated, voxelized
// and feature-extracted in rounds, and each vector set goes straight to
// its shard's paged (VXSNAP02) writer:
//
//	voxgen -stream -count 1000000 -shards 16 -out ./data/million
//	voxserve -snapshot-dir ./data/million     # serves it memory-mapped
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/core"
	"github.com/voxset/voxset/internal/cover"
	"github.com/voxset/voxset/internal/experiments"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/voxel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("voxgen: ")
	var (
		dataset = flag.String("dataset", "car", "dataset to generate: car | aircraft")
		n       = flag.Int("n", 0, "aircraft dataset size (default 5000; ignored for car)")
		seed    = flag.Int64("seed", 42, "generator seed")
		out     = flag.String("out", ".", "output directory")
		res     = flag.Int("r", 15, "voxel resolution for artifacts")
		covers  = flag.Int("covers", 7, "cover budget for -stl approximations")
		stl     = flag.Bool("stl", false, "write STL meshes of the cover approximations")
		surf    = flag.Bool("surfstl", false, "write STL surface meshes of the voxelizations")
		vox     = flag.Bool("vox", false, "write voxel occupancy dumps (text)")
		gridbin = flag.Bool("gridbin", false, "write binary voxel grids (.voxg)")
		limit   = flag.Int("limit", 50, "max parts to write artifacts for (0 = all)")
		workers = flag.Int("workers", 0, "voxelization workers (0 = VOXSET_WORKERS, else one per CPU)")
		snap    = flag.String("snapshot", "", "also run the full feature-extraction pipeline and write a paged vsdb snapshot (voxserve -snapshot serves it memory-mapped)")
		stream  = flag.Bool("stream", false, "streaming ingest: write sharded paged snapshots to -out with bounded memory (skips manifest/artifacts)")
		count   = flag.Int("count", 0, "part count for -stream (aircraft; default 5000, car is fixed-size)")
		shards  = flag.Int("shards", 8, "shard count for -stream (routing identity of the output directory)")
		batch   = flag.Int("batch", 0, "extraction batch size for -stream (0 = default; bounds peak memory)")
	)
	flag.Parse()

	if *stream {
		runStream(*dataset, *seed, *count, *shards, *batch, *covers, *workers, *out)
		return
	}

	var parts []cadgen.Part
	switch *dataset {
	case "car":
		parts = experiments.Car.Parts(*seed, 0)
	case "aircraft":
		parts = experiments.Aircraft.Parts(*seed, *n)
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	manifest, err := os.Create(filepath.Join(*out, *dataset+"_manifest.csv"))
	if err != nil {
		log.Fatal(err)
	}
	defer manifest.Close()
	fmt.Fprintln(manifest, "name,class,class_id,voxels,covers,final_err,extent_x,extent_y,extent_z")

	// Voxelize and extract covers in parallel into per-part slots, then
	// write the manifest and artifacts sequentially in part order.
	type genResult struct {
		g    *voxel.Grid
		seq  cover.Sequence
		info normalize.Info
	}
	res2 := make([]genResult, len(parts))
	w := parallel.Workers(*workers, parallel.Auto())
	parallel.ForEach(len(parts), w, func(i int) {
		g, info := normalize.VoxelizeNormalized(parts[i].Solid, *res)
		res2[i] = genResult{g: g, seq: cover.Greedy(g, *covers), info: info}
	})

	written := 0
	for pi, p := range parts {
		g, seq, info := res2[pi].g, res2[pi].seq, res2[pi].info
		fmt.Fprintf(manifest, "%s,%s,%d,%d,%d,%d,%.4g,%.4g,%.4g\n",
			p.Name, p.Class, p.ClassID, g.Count(), len(seq.Covers),
			seq.FinalErr(g.Count()), info.Extent.X, info.Extent.Y, info.Extent.Z)

		if (*stl || *vox || *surf || *gridbin) && (*limit == 0 || written < *limit) {
			if *stl {
				if err := writeCoverSTL(filepath.Join(*out, p.Name+".stl"), seq); err != nil {
					log.Fatal(err)
				}
			}
			if *surf {
				if err := writeSurfaceSTL(filepath.Join(*out, p.Name+".surf.stl"), g); err != nil {
					log.Fatal(err)
				}
			}
			if *vox {
				if err := writeVox(filepath.Join(*out, p.Name+".vox.txt"), g); err != nil {
					log.Fatal(err)
				}
			}
			if *gridbin {
				if err := writeGrid(filepath.Join(*out, p.Name+".voxg"), g); err != nil {
					log.Fatal(err)
				}
			}
			written++
		}
	}
	log.Printf("wrote %d parts to %s (artifacts for %d)", len(parts), *out, written)

	if *snap != "" {
		d, err := experiments.ParseDataset(*dataset)
		if err != nil {
			log.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Covers = *covers
		cfg.Workers = *workers
		db, err := experiments.BuildSnapshotDB(d, *seed, *n, cfg, *workers, nil)
		if err != nil {
			log.Fatal(err)
		}
		if err := db.SaveFile(*snap); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote snapshot %s (%d objects, covers %d)", *snap, db.Len(), *covers)
	}
}

// runStream is the -stream path: no materialized part list, no
// artifacts — the dataset flows part by part through feature extraction
// into per-shard paged snapshot writers, so -count can be a million
// while RAM stays bounded by one extraction batch.
func runStream(dataset string, seed int64, count, shards, batch, covers, workers int, out string) {
	var src cadgen.PartSource
	switch dataset {
	case "car":
		src = cadgen.NewSliceSource(cadgen.CarDataset(seed))
	case "aircraft":
		if count <= 0 {
			count = 5000
		}
		src = cadgen.NewAircraftSource(seed, count)
	default:
		log.Fatalf("unknown dataset %q", dataset)
	}
	cfg := core.DefaultConfig()
	cfg.Covers = covers
	cfg.Workers = workers
	m, err := experiments.StreamShards(src, cfg, out, experiments.StreamConfig{
		Shards:  shards,
		Workers: workers,
		Batch:   batch,
	})
	if err != nil {
		log.Fatal(err)
	}
	total := uint64(0)
	for _, e := range m.Epochs {
		total += e
	}
	log.Printf("streamed %d objects into %d paged shards at %s (serve with voxserve -snapshot-dir)",
		total, m.Shards, out)
}

// writeCoverSTL renders the additive covers of the sequence as a box mesh.
func writeCoverSTL(path string, seq cover.Sequence) error {
	m := &mesh.Mesh{Name: filepath.Base(path)}
	for _, c := range seq.Covers {
		if c.Sign < 0 {
			continue // STL has no boolean subtraction; additive hull only
		}
		m.Merge(mesh.NewBox(
			geom.V(float64(c.X0), float64(c.Y0), float64(c.Z0)),
			geom.V(float64(c.X1+1), float64(c.Y1+1), float64(c.Z1+1)),
		))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return mesh.WriteSTL(f, m)
}

// writeSurfaceSTL writes the exact voxel boundary surface as binary STL.
func writeSurfaceSTL(path string, g *voxel.Grid) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return mesh.WriteSTL(f, voxel.ToMesh(g, filepath.Base(path)))
}

// writeGrid writes the grid in the compact binary .voxg format.
func writeGrid(path string, g *voxel.Grid) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeVox dumps the grid as z-slices of 0/1 characters.
func writeVox(path string, g *voxel.Grid) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for z := 0; z < g.Nz; z++ {
		fmt.Fprintf(f, "# z = %d\n", z)
		for y := 0; y < g.Ny; y++ {
			row := make([]byte, g.Nx)
			for x := 0; x < g.Nx; x++ {
				if g.Get(x, y, z) {
					row[x] = '1'
				} else {
					row[x] = '0'
				}
			}
			fmt.Fprintf(f, "%s\n", row)
		}
	}
	return nil
}
