// Package core ties the substrates into the paper's end-to-end pipeline:
// CAD part → normalized voxelization (§3.2) → feature extraction under
// all four similarity models (§3.3, §4) → similarity queries and
// clustering with optional 90°-rotation/reflection invariance
// (Definition 2).
package core

import (
	"fmt"
	"math"
	"sync"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/cover"
	"github.com/voxset/voxset/internal/dist"
	"github.com/voxset/voxset/internal/feature"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/voxel"
)

// Model selects one of the similarity models evaluated in the paper.
type Model int

const (
	// ModelVolume is the volume model (§3.3.1): p³-d histogram, Euclidean.
	ModelVolume Model = iota
	// ModelSolidAngle is the solid-angle model (§3.3.2).
	ModelSolidAngle
	// ModelCoverSeq is the cover sequence model (§3.3.3): 6k-d one-vector,
	// Euclidean, covers compared by rank.
	ModelCoverSeq
	// ModelCoverSeqPerm is the cover sequence model under the minimum
	// Euclidean distance under permutation (Definition 4).
	ModelCoverSeqPerm
	// ModelVectorSet is the paper's contribution (§4): vector sets under
	// the minimal matching distance.
	ModelVectorSet
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelVolume:
		return "volume"
	case ModelSolidAngle:
		return "solidangle"
	case ModelCoverSeq:
		return "coverseq"
	case ModelCoverSeqPerm:
		return "permseq"
	case ModelVectorSet:
		return "vectorset"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ParseModel inverts String.
func ParseModel(s string) (Model, error) {
	for _, m := range []Model{ModelVolume, ModelSolidAngle, ModelCoverSeq, ModelCoverSeqPerm, ModelVectorSet} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown model %q (want volume|solidangle|coverseq|permseq|vectorset)", s)
}

// Invariance selects the transformation set T of Definition 2.
type Invariance int

const (
	// InvNone compares features as stored (translation and scaling
	// invariance only, which normalization already provides).
	InvNone Invariance = iota
	// InvRotation90 minimizes over the 24 proper 90°-rotations.
	InvRotation90
	// InvRotoReflection minimizes over all 48 rotoreflections — the
	// setting used throughout the paper's experiments.
	InvRotoReflection
)

func (v Invariance) syms() []geom.CubeSym {
	switch v {
	case InvRotation90:
		return geom.Rotations90()
	case InvRotoReflection:
		return geom.RotoReflections()
	default:
		return nil
	}
}

// Config holds the extraction parameters.
type Config struct {
	// RHist is the voxel resolution for the histogram models (paper: 30).
	RHist int
	// RCover is the voxel resolution for the cover models (paper: 15).
	RCover int
	// P is the number of histogram partitions per dimension (RHist % P
	// must be 0).
	P int
	// KernelRadius is the solid-angle sphere radius in voxels.
	KernelRadius float64
	// Covers is the cover budget k (paper: 7 most effective).
	Covers int
	// UsePCA aligns every object to its principal axes before
	// voxelization (paper §3.2: "For similarity search, where we are not
	// confined to 90°-rotations, we can apply principal axis
	// transformation in order to achieve invariance with respect to
	// rotation"). The residual axis-ordering and sign ambiguity of PCA is
	// resolved by the usual cube-symmetry minimum at query time.
	UsePCA bool
	// Workers bounds the ingestion worker pool (AddParts and the
	// BuildParallel dataset path). 0 follows the package-wide convention:
	// VOXSET_WORKERS if set, else one worker per CPU for batch ingest.
	Workers int
}

// DefaultConfig mirrors the paper's settings: r = 30 for histograms,
// r = 15 for covers, k = 7 covers; p = 5 (125-d histograms) and a
// solid-angle kernel radius of 3 voxels are our calibration.
func DefaultConfig() Config {
	return Config{RHist: 30, RCover: 15, P: 5, KernelRadius: 3, Covers: 7}
}

func (c Config) validate() error {
	if c.RHist <= 0 || c.RCover <= 0 || c.P <= 0 || c.Covers < 0 {
		return fmt.Errorf("core: non-positive config parameter: %+v", c)
	}
	if c.RHist%c.P != 0 {
		return fmt.Errorf("core: RHist (%d) must be a multiple of P (%d)", c.RHist, c.P)
	}
	return nil
}

// Object is a fully extracted database object.
type Object struct {
	ID      int
	Name    string
	Class   string
	ClassID int
	// Info records the normalization (translation removed, per-axis scale
	// factors) per §3.2.
	Info normalize.Info
	// VoxelCount is the number of occupied voxels at the cover resolution.
	VoxelCount int
	// Volume and SolidAngle are the histogram features (p³-d).
	Volume     []float64
	SolidAngle []float64
	// CoverVec is the 6k-d one-vector cover sequence feature.
	CoverVec []float64
	// VSet is the vector set representation (≤ k covers, 6-d each).
	VSet [][]float64
	// CoverErrs is the symmetric-volume-difference profile of the greedy
	// cover extraction.
	CoverErrs []int
}

// Engine extracts objects and evaluates model distances.
type Engine struct {
	cfg Config
	vol feature.VolumeModel
	sa  feature.SolidAngleModel

	mu      sync.Mutex
	objects []*Object
}

// NewEngine validates the configuration and returns an empty engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg: cfg,
		vol: feature.NewVolumeModel(cfg.P, cfg.RHist),
		sa:  feature.NewSolidAngleModel(cfg.P, cfg.RHist, cfg.KernelRadius),
	}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Objects returns the extracted objects in id order.
func (e *Engine) Objects() []*Object { return e.objects }

// Len returns the number of extracted objects.
func (e *Engine) Len() int { return len(e.objects) }

// Extract runs the full §3 pipeline on one part without registering the
// result.
func (e *Engine) Extract(p cadgen.Part) *Object {
	voxelize2 := normalize.VoxelizeNormalized2
	if e.cfg.UsePCA {
		voxelize2 = normalize.PCAVoxelize2
	}
	// One shared bounds-tightening (and PCA) pass feeds both resolutions.
	gHist, gCover, info := voxelize2(p.Solid, e.cfg.RHist, e.cfg.RCover)
	seq := cover.Greedy(gCover, e.cfg.Covers)
	return &Object{
		Name:       p.Name,
		Class:      p.Class,
		ClassID:    p.ClassID,
		Info:       info,
		VoxelCount: gCover.Count(),
		Volume:     e.vol.Extract(gHist),
		SolidAngle: e.sa.Extract(gHist),
		CoverVec:   seq.OneVector(e.cfg.Covers),
		VSet:       seq.VectorSet(),
		CoverErrs:  seq.Errs,
	}
}

// ExtractGrid extracts an object directly from pre-voxelized grids (one
// at each resolution), for callers that voxelize themselves (e.g. from
// meshes).
func (e *Engine) ExtractGrid(name string, gHist, gCover *voxel.Grid) *Object {
	seq := cover.Greedy(gCover, e.cfg.Covers)
	return &Object{
		Name:       name,
		VoxelCount: gCover.Count(),
		Volume:     e.vol.Extract(gHist),
		SolidAngle: e.sa.Extract(gHist),
		CoverVec:   seq.OneVector(e.cfg.Covers),
		VSet:       seq.VectorSet(),
		CoverErrs:  seq.Errs,
	}
}

// Add registers an extracted object, assigning its id.
func (e *Engine) Add(o *Object) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	o.ID = len(e.objects)
	e.objects = append(e.objects, o)
	return o.ID
}

// AddParts extracts and registers all parts on the configured worker
// pool (Config.Workers, default one worker per CPU). Object ids follow
// the input order.
func (e *Engine) AddParts(parts []cadgen.Part) {
	e.AddPartsWorkers(parts, 0)
}

// AddPartsWorkers is AddParts with an explicit worker count (0 falls back
// to Config.Workers, then VOXSET_WORKERS, then one worker per CPU).
// Extraction results land in per-index slots and register in input order,
// so ids and objects are independent of scheduling.
func (e *Engine) AddPartsWorkers(parts []cadgen.Part, workers int) {
	if workers <= 0 {
		workers = e.cfg.Workers
	}
	w := parallel.Workers(workers, parallel.Auto())
	out := make([]*Object, len(parts))
	parallel.ForEach(len(parts), w, func(i int) {
		out[i] = e.Extract(parts[i])
	})
	for _, o := range out {
		e.Add(o)
	}
}

// ---------------------------------------------------------------------------
// Model distances

// baseDistance compares the features of two objects under the model with
// the query-side features given explicitly (so invariance loops can
// substitute transformed query features).
func baseDistance(m Model, qVol, qSA, qCover []float64, qVSet [][]float64, db *Object) float64 {
	switch m {
	case ModelVolume:
		return dist.L2(qVol, db.Volume)
	case ModelSolidAngle:
		return dist.L2(qSA, db.SolidAngle)
	case ModelCoverSeq:
		return dist.L2(qCover, db.CoverVec)
	case ModelCoverSeqPerm:
		return dist.MinEuclideanPerm(qVSet, db.VSet)
	case ModelVectorSet:
		return dist.MatchingDistance(qVSet, db.VSet, dist.L2, dist.WeightNorm)
	}
	panic(fmt.Sprintf("core: unknown model %d", int(m)))
}

// Distance computes simdist under the chosen model and invariance:
// the minimum over the transformation set of the distance between the
// transformed query features and the stored database features
// (Definition 2). Both objects must come from the same engine
// configuration.
func (e *Engine) Distance(m Model, inv Invariance, q, db *Object) float64 {
	syms := inv.syms()
	if syms == nil {
		return baseDistance(m, q.Volume, q.SolidAngle, q.CoverVec, q.VSet, db)
	}
	// One pooled workspace serves all 24/48 matchings of the invariance
	// loop — per-transform allocations would otherwise dominate.
	ws := dist.GetWorkspace()
	defer dist.PutWorkspace(ws)
	best := math.Inf(1)
	for _, s := range syms {
		var d float64
		switch m {
		case ModelVolume:
			d = dist.L2(e.vol.Transform(q.Volume, s), db.Volume)
		case ModelSolidAngle:
			d = dist.L2(e.sa.Transform(q.SolidAngle, s), db.SolidAngle)
		case ModelCoverSeq:
			d = dist.L2(cover.TransformOneVector(q.CoverVec, s), db.CoverVec)
		case ModelCoverSeqPerm:
			d = ws.MinEuclideanPerm(cover.TransformVectorSet(q.VSet, s), db.VSet)
		case ModelVectorSet:
			d = ws.MatchingDistance(cover.TransformVectorSet(q.VSet, s), db.VSet,
				dist.L2, dist.WeightNorm)
		default:
			panic(fmt.Sprintf("core: unknown model %d", int(m)))
		}
		if d < best {
			best = d
		}
	}
	return best
}

// WorldScale returns the object's voxel→world scale factor at the cover
// resolution: one voxel of its normalized grid corresponds to this many
// world units. Derived from the stored per-axis scale factors (§3.2).
func (o *Object) WorldScale(rCover int) float64 {
	return o.Info.Extent.MaxComponent() / float64(rCover)
}

// scaleSet returns a copy of the vector set with every component
// multiplied by s — covers expressed in world units instead of voxels.
func scaleSet(set [][]float64, s float64) [][]float64 {
	out := make([][]float64, len(set))
	for i, v := range set {
		w := make([]float64, len(v))
		for j, x := range v {
			w[j] = x * s
		}
		out[i] = w
	}
	return out
}

// DistanceScaleSensitive computes the vector set or cover sequence
// distance with scaling invariance *deactivated* (paper §3.2: "the actual
// size of the parts may or may not exert influence on the similarity
// model … reflection and scaling invariances have to be tunable"): cover
// features are converted from normalized voxel units into world units
// using the stored scale factors, so identically shaped parts of
// different sizes are distant. Supported for the cover-based models; the
// histogram models are inherently scale-normalized.
func (e *Engine) DistanceScaleSensitive(m Model, inv Invariance, q, db *Object) float64 {
	sq := q.WorldScale(e.cfg.RCover)
	sdb := db.WorldScale(e.cfg.RCover)
	syms := inv.syms()
	if syms == nil {
		syms = []geom.CubeSym{{Perm: [3]int{0, 1, 2}, Sign: [3]int{1, 1, 1}}}
	}
	best := math.Inf(1)
	switch m {
	case ModelVectorSet, ModelCoverSeqPerm:
		qs := scaleSet(q.VSet, sq)
		dbs := scaleSet(db.VSet, sdb)
		ws := dist.GetWorkspace()
		defer dist.PutWorkspace(ws)
		for _, s := range syms {
			var d float64
			if m == ModelVectorSet {
				d = ws.MatchingDistance(cover.TransformVectorSet(qs, s), dbs,
					dist.L2, dist.WeightNorm)
			} else {
				d = ws.MinEuclideanPerm(cover.TransformVectorSet(qs, s), dbs)
			}
			if d < best {
				best = d
			}
		}
	case ModelCoverSeq:
		qv := make([]float64, len(q.CoverVec))
		for i, x := range q.CoverVec {
			qv[i] = x * sq
		}
		dbv := make([]float64, len(db.CoverVec))
		for i, x := range db.CoverVec {
			dbv[i] = x * sdb
		}
		for _, s := range syms {
			if d := dist.L2(cover.TransformOneVector(qv, s), dbv); d < best {
				best = d
			}
		}
	default:
		panic(fmt.Sprintf("core: scale-sensitive distance not defined for %v "+
			"(histogram features are scale-normalized)", m))
	}
	return best
}

// RowFunc returns an optics.RowFunc-compatible distance-row function that
// computes all distances from object i in parallel (one worker per CPU
// unless VOXSET_WORKERS overrides). The query-side feature transforms for
// the invariance loop are computed once per row and shared read-only by
// the workers, each of which refines through its own pooled matching
// workspace, so the per-pair cost is a pure distance evaluation.
// Every entry equals Distance(m, inv, i, j) bit for bit, so orderings
// produced with this function are identical to a sequential run over
// Distance.
func (e *Engine) RowFunc(m Model, inv Invariance) func(i int, out []float64) {
	syms := inv.syms()
	workers := parallel.Workers(0, parallel.Auto())
	return func(i int, out []float64) {
		q := e.objects[i]
		// Precompute the transformed query features (identity only when no
		// invariance is requested).
		var tVol, tSA, tCover [][]float64
		var tVSet [][][]float64
		if syms == nil {
			switch m {
			case ModelVolume:
				tVol = [][]float64{q.Volume}
			case ModelSolidAngle:
				tSA = [][]float64{q.SolidAngle}
			case ModelCoverSeq:
				tCover = [][]float64{q.CoverVec}
			case ModelCoverSeqPerm, ModelVectorSet:
				tVSet = [][][]float64{q.VSet}
			}
		} else {
			for _, s := range syms {
				switch m {
				case ModelVolume:
					tVol = append(tVol, e.vol.Transform(q.Volume, s))
				case ModelSolidAngle:
					tSA = append(tSA, e.sa.Transform(q.SolidAngle, s))
				case ModelCoverSeq:
					tCover = append(tCover, cover.TransformOneVector(q.CoverVec, s))
				case ModelCoverSeqPerm, ModelVectorSet:
					tVSet = append(tVSet, cover.TransformVectorSet(q.VSet, s))
				}
			}
		}
		nVariants := len(tVol) + len(tSA) + len(tCover) + len(tVSet)

		n := len(e.objects)
		w := min(workers, n)
		parallel.Run(w, func(worker int) {
			ws := dist.GetWorkspace()
			defer dist.PutWorkspace(ws)
			lo, hi := parallel.Chunk(n, max(w, 1), worker)
			for j := lo; j < hi; j++ {
				if j == i {
					out[j] = 0
					continue
				}
				db := e.objects[j]
				best := math.Inf(1)
				for v := 0; v < nVariants; v++ {
					var d float64
					switch m {
					case ModelVolume:
						d = dist.L2(tVol[v], db.Volume)
					case ModelSolidAngle:
						d = dist.L2(tSA[v], db.SolidAngle)
					case ModelCoverSeq:
						d = dist.L2(tCover[v], db.CoverVec)
					case ModelCoverSeqPerm:
						d = ws.MinEuclideanPerm(tVSet[v], db.VSet)
					case ModelVectorSet:
						d = ws.MatchingDistance(tVSet[v], db.VSet, dist.L2, dist.WeightNorm)
					}
					if d < best {
						best = d
					}
				}
				out[j] = best
			}
		})
	}
}

// MatchingStats runs the minimal matching distance between two objects
// and reports whether the optimal matching required a proper permutation
// (paper Table 1).
func MatchingStats(q, db *Object) (distance float64, proper bool) {
	match := dist.MinimalMatching(q.VSet, db.VSet, dist.L2, dist.WeightNorm)
	return match.Distance, match.Proper()
}
