// Package voxset is a similarity-search library for voxelized CAD
// objects, reproducing Kriegel et al., "Using Sets of Feature Vectors for
// Similarity Search on Voxelized CAD Objects" (SIGMOD 2003).
//
// A CAD part is voxelized translation- and scale-normalized, then
// represented under four similarity models:
//
//   - volume model — p³-d shape histogram of voxel counts;
//   - solid-angle model — p³-d histogram of surface convexity;
//   - cover sequence model — 6k-d vector of k greedy rectangular covers;
//   - vector set model (the paper's contribution) — the same covers as a
//     *set* of 6-d vectors compared with the minimal matching distance
//     (a metric, computed in O(k³) by the Kuhn-Munkres algorithm).
//
// Similarity queries on vector sets are accelerated by the extended
// centroid filter: k·‖C(X)−C(q)‖₂ lower-bounds the matching distance, so
// a 6-d X-tree over centroids prunes candidates before exact refinement
// (optimal multi-step k-nn).
//
// Quick start:
//
//	db, _ := voxset.Open(voxset.DefaultConfig())
//	db.AddParts(voxset.CarParts(42))
//	res := db.KNN(db.Object(0), 10, voxset.Query{Model: voxset.ModelVectorSet})
package voxset

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/core"
	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/index"
	"github.com/voxset/voxset/internal/index/filter"
	"github.com/voxset/voxset/internal/index/mtree"
	"github.com/voxset/voxset/internal/index/scan"
	"github.com/voxset/voxset/internal/index/xtree"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/optics"
	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/voxel"
)

// Re-exported pipeline types. The implementation lives in internal
// packages; these aliases are the supported public surface.
type (
	// Config holds extraction parameters (voxel resolutions, histogram
	// partitions, cover budget k).
	Config = core.Config
	// Object is a fully extracted database object with all four feature
	// representations.
	Object = core.Object
	// Model selects a similarity model.
	Model = core.Model
	// Invariance selects the transformation set of Definition 2.
	Invariance = core.Invariance
	// Part is a synthetic CAD part (a labeled CSG solid).
	Part = cadgen.Part
	// Neighbor is a single query result.
	Neighbor = index.Neighbor
	// ClusterResult is an OPTICS cluster ordering with reachabilities.
	ClusterResult = optics.Result
	// ClusterNode is one node of a hierarchical cluster tree extracted
	// from a reachability plot.
	ClusterNode = optics.ClusterNode
)

// Similarity models (see Model).
const (
	ModelVolume       = core.ModelVolume
	ModelSolidAngle   = core.ModelSolidAngle
	ModelCoverSeq     = core.ModelCoverSeq
	ModelCoverSeqPerm = core.ModelCoverSeqPerm
	ModelVectorSet    = core.ModelVectorSet
)

// Invariance settings (see Invariance).
const (
	InvNone           = core.InvNone
	InvRotation90     = core.InvRotation90
	InvRotoReflection = core.InvRotoReflection
)

// DefaultConfig mirrors the paper's parameters: histogram resolution 30,
// cover resolution 15, k = 7 covers.
func DefaultConfig() Config { return core.DefaultConfig() }

// ParseModel parses a model name ("volume", "solidangle", "coverseq",
// "permseq", "vectorset").
func ParseModel(s string) (Model, error) { return core.ParseModel(s) }

// CarParts generates the synthetic Car Dataset (≈200 parts in the
// families the paper describes: tires, doors, fenders, engine blocks,
// seat envelopes, brackets).
func CarParts(seed int64) []Part { return cadgen.CarDataset(seed) }

// AircraftParts generates n parts of the synthetic Aircraft Dataset
// (fastener-heavy mix with a few large wings; the paper uses n = 5000).
func AircraftParts(seed int64, n int) []Part { return cadgen.AircraftDataset(seed, n) }

// PartLabels returns the 1-based class id of every part.
func PartLabels(parts []Part) []int { return cadgen.Labels(parts) }

// Query configures a similarity query.
type Query struct {
	// Model selects the similarity model (default ModelVectorSet).
	Model Model
	// Invariance selects the transformation set (default InvNone).
	// Invariant queries bypass the accelerated paths and evaluate
	// Definition 2 exhaustively.
	Invariance Invariance
	// Access selects the physical access path for vector set queries.
	Access Access
	// ScaleSensitive deactivates scaling invariance (§3.2): cover features
	// are compared in world units via the stored scale factors, so
	// identically shaped parts of different sizes rank as dissimilar.
	// Supported for the cover-based models only; forces the exhaustive
	// evaluation path.
	ScaleSensitive bool
}

// Access selects an access path for queries.
type Access int

const (
	// AccessAuto uses the filter pipeline for the vector set model, the
	// X-tree for the one-vector cover model, and a scan otherwise.
	AccessAuto Access = iota
	// AccessFilter forces the extended-centroid filter pipeline
	// (vector set model only).
	AccessFilter
	// AccessScan forces a sequential scan with exact distances.
	AccessScan
	// AccessMTree forces the M-tree metric index (vector set model only) —
	// the "simplest approach" the paper names in §4.3 for metric distance
	// functions, included here as a measured extension.
	AccessMTree
)

// IOStats reports simulated I/O of the last query, priced with the
// paper's cost model (8 ms/page, 200 ns/byte).
type IOStats struct {
	PageAccesses int64
	BytesRead    int64
	IOTime       time.Duration
	CPUTime      time.Duration
}

// Database is an in-memory similarity-search database over voxelized CAD
// objects with simulated page I/O accounting.
type Database struct {
	engine  *core.Engine
	tracker storage.Tracker

	filterIx   *filter.Index              // vector set centroids + refinement
	oneVecTree *xtree.Tree                // 6k-d one-vector features
	vsetScan   *scan.Scanner[[][]float64] // vector set sequential scan
	vsetFile   *storage.PagedFile         // simulated vector set file
	vsetMTree  *mtree.Tree[[][]float64]   // metric index over vector sets
	dirty      bool

	lastIO IOStats
}

// Open creates an empty database.
func Open(cfg Config) (*Database, error) {
	e, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Database{engine: e, dirty: true}, nil
}

// MustOpen is Open, panicking on configuration errors.
func MustOpen(cfg Config) *Database {
	db, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// AddParts voxelizes, extracts and indexes the given parts in parallel.
func (db *Database) AddParts(parts []Part) {
	db.engine.AddParts(parts)
	db.dirty = true
}

// Extract runs the feature pipeline on a part without storing it — for
// building external query objects.
func (db *Database) Extract(p Part) *Object { return db.engine.Extract(p) }

// ExtractMesh runs the feature pipeline on a watertight triangle mesh
// (e.g. loaded from STL with ReadSTL), voxelizing it translation- and
// scale-normalized at both working resolutions. The returned object can
// be used as a query or stored with AddObject.
func (db *Database) ExtractMesh(name string, m *mesh.Mesh) *Object {
	cfg := db.engine.Config()
	b := m.Bounds()
	gH := voxel.VoxelizeMesh(m, b, cfg.RHist)
	gC := voxel.VoxelizeMesh(m, b, cfg.RCover)
	o := db.engine.ExtractGrid(name, gH, gC)
	o.Info = normalize.Info{Center: b.Center(), Extent: b.Size()}
	return o
}

// AddObject stores a pre-extracted object (from Extract or ExtractMesh)
// and returns its id.
func (db *Database) AddObject(o *Object) int {
	id := db.engine.Add(o)
	db.dirty = true
	return id
}

// ReadSTL parses a binary or ASCII STL stream into a mesh for
// ExtractMesh.
func ReadSTL(r io.Reader) (*mesh.Mesh, error) { return mesh.ReadSTL(r) }

// AddSTLFile reads one STL file, extracts it and stores it under its
// base filename. Returns the assigned object id.
func (db *Database) AddSTLFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	m, err := mesh.ReadSTL(f)
	if err != nil {
		return 0, fmt.Errorf("voxset: parsing %s: %w", path, err)
	}
	if len(m.Triangles) == 0 {
		return 0, fmt.Errorf("voxset: %s contains no triangles", path)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return db.AddObject(db.ExtractMesh(name, m)), nil
}

// AddSTLDir indexes every .stl file in a directory (non-recursive) — the
// path real CAD part libraries arrive on. It returns the number of parts
// added; files that fail to parse are reported in errs but do not abort
// the load.
func (db *Database) AddSTLDir(dir string) (added int, errs []error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, []error{err}
	}
	for _, e := range entries {
		if e.IsDir() || !strings.EqualFold(filepath.Ext(e.Name()), ".stl") {
			continue
		}
		if _, err := db.AddSTLFile(filepath.Join(dir, e.Name())); err != nil {
			errs = append(errs, err)
			continue
		}
		added++
	}
	return added, errs
}

// Len returns the number of stored objects.
func (db *Database) Len() int { return db.engine.Len() }

// Object returns the stored object with the given id.
func (db *Database) Object(id int) *Object { return db.engine.Objects()[id] }

// Objects returns all stored objects in id order.
func (db *Database) Objects() []*Object { return db.engine.Objects() }

// Engine exposes the underlying extraction engine for advanced use
// (distance functions, custom evaluations).
func (db *Database) Engine() *core.Engine { return db.engine }

// Save writes the database — configuration and all extracted objects —
// as a gzip-compressed snapshot. Feature extraction is the expensive part
// of the pipeline; snapshots let applications reuse it across runs.
func (db *Database) Save(w io.Writer) error { return db.engine.SaveObjects(w) }

// LoadDatabase reads a snapshot written by Save. Query indexes are
// rebuilt lazily on first use.
func LoadDatabase(r io.Reader) (*Database, error) {
	e, err := core.LoadEngine(r)
	if err != nil {
		return nil, err
	}
	return &Database{engine: e, dirty: true}, nil
}

// LastIO returns the simulated I/O statistics of the most recent query.
func (db *Database) LastIO() IOStats { return db.lastIO }

// rebuild constructs the access structures.
func (db *Database) rebuild() {
	if !db.dirty {
		return
	}
	cfg := db.engine.Config()
	db.filterIx = filter.New(filter.Config{
		K: cfg.Covers, Dim: 6, Tracker: &db.tracker,
	})
	db.oneVecTree = xtree.New(6*cfg.Covers, xtree.Config{Tracker: &db.tracker})
	db.vsetFile = storage.NewPagedFile(storage.DefaultPageSize, &db.tracker)
	matching := func(a, b [][]float64) float64 {
		return dist.MatchingDistance(a, b, dist.L2, dist.WeightNorm)
	}
	db.vsetScan = scan.New(matching, db.vsetFile)
	db.vsetMTree = mtree.New(matching, mtree.Config{
		Tracker:    &db.tracker,
		EntryBytes: 8 + cfg.Covers*6*8,
	})
	for _, o := range db.engine.Objects() {
		db.filterIx.Add(o.VSet, o.ID)
		db.oneVecTree.Insert(o.CoverVec, o.ID)
		db.vsetScan.Add(o.VSet, o.ID)
		db.vsetMTree.Insert(o.VSet, o.ID)
		db.vsetFile.Append(make([]byte, 8+len(o.VSet)*6*8))
	}
	db.dirty = false
}

func (db *Database) beginQuery() time.Time {
	db.rebuild()
	db.tracker.Reset()
	return time.Now()
}

func (db *Database) endQuery(start time.Time) {
	db.lastIO = IOStats{
		PageAccesses: db.tracker.PageAccesses(),
		BytesRead:    db.tracker.BytesRead(),
		IOTime:       db.tracker.IOTime(storage.PaperCostModel),
		CPUTime:      time.Since(start),
	}
}

// KNN returns the k nearest stored objects to the query object; k ≤ 0
// answers nil on every path.
func (db *Database) KNN(q *Object, k int, opt Query) []Neighbor {
	start := db.beginQuery()
	defer func() { db.endQuery(start) }()

	if k <= 0 {
		return nil
	}
	if opt.Invariance != InvNone || opt.ScaleSensitive {
		return db.invariantKNN(q, k, opt)
	}
	switch {
	case opt.Model == ModelVectorSet && opt.Access == AccessMTree:
		return db.vsetMTree.KNN(q.VSet, k)
	case opt.Model == ModelVectorSet && opt.Access != AccessScan:
		return db.filterIx.KNN(q.VSet, k)
	case opt.Model == ModelCoverSeq && opt.Access != AccessScan:
		return db.oneVecTree.KNN(q.CoverVec, k)
	case opt.Model == ModelVectorSet:
		return db.vsetScan.KNN(q.VSet, k)
	default:
		return db.scanKNN(q, k, opt)
	}
}

// RangeQuery returns all stored objects within eps of the query object.
func (db *Database) RangeQuery(q *Object, eps float64, opt Query) []Neighbor {
	start := db.beginQuery()
	defer func() { db.endQuery(start) }()

	if opt.Invariance != InvNone || opt.ScaleSensitive {
		db.chargeExhaustive(opt.Model)
		measure := db.engine.Distance
		if opt.ScaleSensitive {
			measure = db.engine.DistanceScaleSensitive
		}
		var out []Neighbor
		for _, o := range db.engine.Objects() {
			if d := measure(opt.Model, opt.Invariance, q, o); d <= eps {
				out = append(out, Neighbor{ID: o.ID, Dist: d})
			}
		}
		sortNeighbors(out)
		return out
	}
	switch {
	case opt.Model == ModelVectorSet && opt.Access == AccessMTree:
		return db.vsetMTree.Range(q.VSet, eps)
	case opt.Model == ModelVectorSet && opt.Access != AccessScan:
		return db.filterIx.Range(q.VSet, eps)
	case opt.Model == ModelCoverSeq && opt.Access != AccessScan:
		return db.oneVecTree.Range(q.CoverVec, eps)
	default:
		db.chargeExhaustive(opt.Model)
		var out []Neighbor
		for _, o := range db.engine.Objects() {
			if d := db.engine.Distance(opt.Model, InvNone, q, o); d <= eps {
				out = append(out, Neighbor{ID: o.ID, Dist: d})
			}
		}
		sortNeighbors(out)
		return out
	}
}

func (db *Database) scanKNN(q *Object, k int, opt Query) []Neighbor {
	db.chargeExhaustive(opt.Model)
	all := make([]Neighbor, 0, db.Len())
	for _, o := range db.engine.Objects() {
		all = append(all, Neighbor{ID: o.ID, Dist: db.engine.Distance(opt.Model, InvNone, q, o)})
	}
	sortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// chargeExhaustive accounts the physical plan of an invariant query: a
// sequential read of the feature file (vector sets or one-vector
// records).
func (db *Database) chargeExhaustive(m Model) {
	switch m {
	case ModelVectorSet, ModelCoverSeqPerm:
		db.vsetFile.Scan(func(int, []byte) {})
	default:
		cfg := db.engine.Config()
		recBytes := 6 * cfg.Covers * 8
		db.tracker.AddPageAccess(db.Len()*recBytes/storage.DefaultPageSize + 1)
		db.tracker.AddBytes(db.Len() * recBytes)
	}
}

func (db *Database) invariantKNN(q *Object, k int, opt Query) []Neighbor {
	db.chargeExhaustive(opt.Model)
	measure := db.engine.Distance
	if opt.ScaleSensitive {
		measure = db.engine.DistanceScaleSensitive
	}
	all := make([]Neighbor, 0, db.Len())
	for _, o := range db.engine.Objects() {
		all = append(all, Neighbor{
			ID:   o.ID,
			Dist: measure(opt.Model, opt.Invariance, q, o),
		})
	}
	sortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sortNeighbors(ns []Neighbor) {
	index.SortNeighbors(ns)
}

// Cluster runs OPTICS over all stored objects under the given model and
// invariance with the given minPts (eps unbounded, as in the paper's
// evaluation) and returns the cluster ordering. Distance rows are
// computed in parallel across CPU cores; the ordering is identical to a
// sequential run.
func (db *Database) Cluster(model Model, inv Invariance, minPts int) ClusterResult {
	return optics.RunRows(db.Len(), db.engine.RowFunc(model, inv), math.Inf(1), minPts)
}

// ClusterLabels cuts a cluster ordering at reachability eps and returns
// per-object cluster labels (0 = noise).
func ClusterLabels(r ClusterResult, eps float64) []int { return optics.EpsCut(r, eps) }

// ClusterPurity scores cluster labels against ground-truth labels.
func ClusterPurity(clusters, truth []int) float64 { return optics.Purity(clusters, truth) }

// ClusterHierarchy extracts the hierarchical cluster tree from a
// reachability plot (nested valleys — e.g. tire sub-families inside the
// tire cluster, the paper's Figure 9c G/G₁/G₂ pattern). minSize
// suppresses clusters with fewer objects.
func ClusterHierarchy(r ClusterResult, minSize int) []*ClusterNode {
	return optics.HierarchicalClusters(r, minSize)
}

// RenderHierarchy pretty-prints a cluster tree; labelFn (optional)
// summarizes each node's member objects.
func RenderHierarchy(forest []*ClusterNode, r ClusterResult, labelFn func(objects []int) string) string {
	return optics.RenderTree(forest, r, labelFn)
}

// RenderReachability renders a reachability plot as ASCII art.
func RenderReachability(r ClusterResult, width, height int) string {
	return optics.RenderASCII(r, width, height)
}

// PartialDistance computes the partial similarity score of paper §4.1:
// the minimal total distance of the best i cover correspondences between
// the two objects' vector sets (i ≤ min cardinality). Unmatched covers
// cost nothing, so the score measures shared sub-structure. It is not a
// metric; use it for ranking.
func PartialDistance(a, b *Object, i int) float64 {
	return dist.PartialMatching(a.VSet, b.VSet, dist.L2, i)
}

// MaxPartialPairs returns the largest valid i for PartialDistance of two
// objects: the smaller vector set cardinality.
func MaxPartialPairs(a, b *Object) int {
	if len(a.VSet) < len(b.VSet) {
		return len(a.VSet)
	}
	return len(b.VSet)
}

// PartialKNN returns the k stored objects with the smallest partial
// matching score against the query: the cost of the best
// min(pairs, MaxPartialPairs) cover correspondences, where pairs ≤ 0
// means MaxPartialPairs (as vsdb.SetQuery.I = 0 does). k ≤ 0 answers nil.
// Use it to find parts sharing sub-structure with the query regardless of
// their other geometry. Evaluated exhaustively (the partial score is not a
// metric, so neither the centroid filter nor the M-tree applies).
func (db *Database) PartialKNN(q *Object, k, pairs int) []Neighbor {
	start := db.beginQuery()
	defer func() { db.endQuery(start) }()
	if k <= 0 {
		return nil
	}
	db.chargeExhaustive(ModelVectorSet)
	all := make([]Neighbor, 0, db.Len())
	for _, o := range db.engine.Objects() {
		i := MaxPartialPairs(q, o)
		if pairs > 0 && pairs < i {
			i = pairs
		}
		all = append(all, Neighbor{ID: o.ID, Dist: PartialDistance(q, o, i)})
	}
	sortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// FilterRefinements returns the number of exact distance computations the
// filter pipeline performed since the database was (re)built — the
// filter-selectivity statistic.
func (db *Database) FilterRefinements() int64 {
	if db.filterIx == nil {
		return 0
	}
	return db.filterIx.Refinements()
}

// String summarizes the database.
func (db *Database) String() string {
	cfg := db.engine.Config()
	return fmt.Sprintf("voxset.Database{objects: %d, k: %d, rHist: %d, rCover: %d}",
		db.Len(), cfg.Covers, cfg.RHist, cfg.RCover)
}
