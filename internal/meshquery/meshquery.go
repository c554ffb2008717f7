// Package meshquery is the canonical mesh → feature-vector-set
// extraction used by query-by-upload: an uploaded triangle mesh is
// voxelized into the normalized cover grid and summarized as the cover
// vector set the database stores (§3–§5 of the paper, minus the
// dataset-build bookkeeping).
//
// The package exists so the served upload path and offline callers
// (parity tests, benchmarks) share one implementation: Extract is
// exactly Voxelize followed by CoverSet, so a POST /query/mesh answer
// is byte-identical to extracting the same mesh offline and querying by
// vector set directly — the acceptance contract holds by construction,
// not by keeping two copies in sync.
//
// Input: any mesh.Triangles — a *mesh.Mesh, or an uploaded binary STL
// body read in place by mesh.ViewSTL, which the served path uses so the
// body is voxelized without copying it into a []Triangle. The view decodes
// float32 vertices exactly, so both give the same grid.
//
// Normalization: the voxelizer centers the mesh's bounding box inside a
// cube of its maximum extent before rasterizing (the grid placement of
// voxel.fitGridToBounds), so translation and scale are normalized exactly
// as the dataset-build pipeline normalizes solids. A mesh query
// voxelizes on the caller's goroutine; the grid is bit-identical to what
// the voxelizer's worker pool builds.
package meshquery

import (
	"errors"
	"fmt"

	"github.com/voxset/voxset/internal/cover"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/voxel"
)

// Extraction errors, matchable with errors.Is.
var (
	// ErrEmptyMesh reports a mesh with no triangles.
	ErrEmptyMesh = errors.New("meshquery: mesh has no triangles")
	// ErrDegenerate reports a mesh that rasterizes to zero voxels (a
	// flat or vanishingly thin surface at the configured resolution).
	ErrDegenerate = errors.New("meshquery: mesh voxelizes to an empty grid")
	// ErrNonFinite reports a NaN or infinite vertex coordinate, which has
	// no place on a grid.
	ErrNonFinite = errors.New("meshquery: mesh has a non-finite vertex")
)

// Config parameterizes the extraction.
type Config struct {
	// RCover is the cover-grid resolution r' (> 0).
	RCover int
	// Covers is the cover budget k: the extracted set has at most this
	// many 6-d vectors (> 0).
	Covers int
}

// DefaultConfig matches core.DefaultConfig's cover parameters (r'=15,
// k=7), so sets extracted here are comparable to a database built by
// the standard pipeline.
func DefaultConfig() Config { return Config{RCover: 15, Covers: 7} }

func (c Config) validate() error {
	if c.RCover <= 0 {
		return fmt.Errorf("meshquery: RCover must be positive, got %d", c.RCover)
	}
	if c.Covers <= 0 {
		return fmt.Errorf("meshquery: Covers must be positive, got %d", c.Covers)
	}
	return nil
}

// Result is one extraction outcome.
type Result struct {
	// Set is the cover feature-vector set (≤ Covers rows of 6 values).
	Set [][]float64
	// Triangles is the parsed mesh's triangle count.
	Triangles int
	// Voxels is the occupied-cell count of the normalized cover grid.
	Voxels int
}

// Voxelize rasterizes the triangles — a *mesh.Mesh, or a binary STL
// body read in place by mesh.ViewSTL — into their normalized cover grid.
// A nil or empty mesh is ErrEmptyMesh; a NaN or infinite vertex is
// ErrNonFinite: it would make the grid placement NaN.
func Voxelize(m mesh.Triangles, cfg Config) (*voxel.Grid, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if m == nil || m.Len() == 0 { // (*mesh.Mesh)(nil).Len() is 0
		return nil, ErrEmptyMesh
	}
	bounds, finite := mesh.FiniteBounds(m)
	if !finite {
		return nil, ErrNonFinite
	}
	g := voxel.VoxelizeMeshWorkers(m, bounds, cfg.RCover, 1)
	if g.Empty() {
		return nil, ErrDegenerate
	}
	return g, nil
}

// CoverSet summarizes a voxel grid as its greedy-cover feature-vector
// set (§3.3): at most covers 6-d vectors, deterministic for a given
// grid.
func CoverSet(g *voxel.Grid, covers int) [][]float64 {
	return cover.Greedy(g, covers).VectorSet()
}

// Extract runs the full pipeline: Voxelize, then CoverSet. Serving
// handlers call the two stages separately (to time them); this
// composition is definitionally the same computation.
func Extract(m mesh.Triangles, cfg Config) (Result, error) {
	g, err := Voxelize(m, cfg)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Set:       CoverSet(g, cfg.Covers),
		Triangles: m.Len(),
		Voxels:    g.Count(),
	}, nil
}
