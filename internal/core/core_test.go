package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/normalize"
)

func testConfig() Config {
	// Smaller than the paper's settings to keep tests fast.
	return Config{RHist: 12, RCover: 12, P: 3, KernelRadius: 2, Covers: 5}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidatesConfig(t *testing.T) {
	if _, err := NewEngine(Config{RHist: 10, RCover: 10, P: 3, Covers: 3}); err == nil {
		t.Error("RHist % P != 0 must be rejected")
	}
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("zero config must be rejected")
	}
	if _, err := NewEngine(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestModelStringRoundTrip(t *testing.T) {
	for _, m := range []Model{ModelVolume, ModelSolidAngle, ModelCoverSeq, ModelCoverSeqPerm, ModelVectorSet} {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("round trip of %v failed: %v, %v", m, got, err)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestExtractProducesAllFeatures(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(1))
	o := e.Extract(cadgen.Part{Name: "t", Class: "tire", ClassID: 1, Solid: cadgen.Tire(rng)})
	if len(o.Volume) != 27 || len(o.SolidAngle) != 27 {
		t.Errorf("histogram dims = %d, %d", len(o.Volume), len(o.SolidAngle))
	}
	if len(o.CoverVec) != 30 {
		t.Errorf("one-vector dim = %d", len(o.CoverVec))
	}
	if len(o.VSet) == 0 || len(o.VSet) > 5 {
		t.Errorf("vector set cardinality = %d", len(o.VSet))
	}
	if o.VoxelCount == 0 {
		t.Error("no voxels")
	}
	if len(o.CoverErrs) != len(o.VSet) {
		t.Errorf("error profile length %d vs %d covers", len(o.CoverErrs), len(o.VSet))
	}
}

func TestAddPartsParallelPreservesOrder(t *testing.T) {
	e := newTestEngine(t)
	parts := cadgen.CarDataset(2)[:24]
	e.AddParts(parts)
	if e.Len() != 24 {
		t.Fatalf("len = %d", e.Len())
	}
	for i, o := range e.Objects() {
		if o.ID != i {
			t.Fatalf("object %d has id %d", i, o.ID)
		}
		if o.Name != parts[i].Name {
			t.Fatalf("object %d is %q, want %q", i, o.Name, parts[i].Name)
		}
	}
}

func TestDistanceSelfIsZero(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(3))
	o := e.Extract(cadgen.Part{Name: "n", Solid: cadgen.Nut(rng)})
	for _, m := range []Model{ModelVolume, ModelSolidAngle, ModelCoverSeq, ModelCoverSeqPerm, ModelVectorSet} {
		for _, inv := range []Invariance{InvNone, InvRotation90, InvRotoReflection} {
			if d := e.Distance(m, inv, o, o); d > 1e-9 {
				t.Errorf("%v/%v self distance = %v", m, inv, d)
			}
		}
	}
}

// A rotated copy of an object must be near distance 0 under rotation
// invariance for the histogram models (whose transforms are exact), and
// clearly closer than under no invariance.
func TestRotationInvariance(t *testing.T) {
	e := newTestEngine(t)
	s := csg.NewBox(geom.V(0, 0, 0), geom.V(6, 3, 1.5))
	rot := csg.Transform(s, geom.Rotate(geom.Rotations90()[7].Matrix()))

	a := e.Extract(cadgen.Part{Name: "a", Solid: s})
	b := e.Extract(cadgen.Part{Name: "b", Solid: rot})

	for _, m := range []Model{ModelVolume, ModelSolidAngle, ModelVectorSet} {
		dNone := e.Distance(m, InvNone, a, b)
		dRot := e.Distance(m, InvRotation90, a, b)
		if dRot > dNone+1e-12 {
			t.Errorf("%v: invariant distance %v exceeds plain %v", m, dRot, dNone)
		}
		// The box is asymmetric enough that some rotation differs; the
		// invariant distance should be (near) zero.
		if dRot > 0.15*dNone && dNone > 1e-9 {
			t.Errorf("%v: rotation invariance barely helped: %v vs %v", m, dRot, dNone)
		}
	}
}

// Reflection invariance: a mirrored object matches only under the full
// 48-element group.
func TestReflectionInvariance(t *testing.T) {
	e := newTestEngine(t)
	// A chiral object: an L-tromino-like union of boxes.
	chiral := csg.Union(
		csg.NewBox(geom.V(0, 0, 0), geom.V(6, 1.4, 1.4)),
		csg.NewBox(geom.V(0, 0, 0), geom.V(1.4, 3.5, 1.4)),
		csg.NewBox(geom.V(0, 0, 0), geom.V(1.4, 1.4, 2.2)),
	)
	mirrored := csg.Transform(chiral, geom.ScaleAffine(geom.V(-1, 1, 1)))
	a := e.Extract(cadgen.Part{Name: "a", Solid: chiral})
	b := e.Extract(cadgen.Part{Name: "b", Solid: mirrored})

	// The vector set model carries exact cover coordinates, so it can
	// detect chirality even at coarse resolutions where histogram bins
	// cannot.
	dRot := e.Distance(ModelVectorSet, InvRotation90, a, b)
	dFull := e.Distance(ModelVectorSet, InvRotoReflection, a, b)
	if dFull > 1e-9 {
		t.Errorf("full invariance distance = %v, want ≈ 0", dFull)
	}
	if dRot <= dFull+1e-9 {
		t.Errorf("rotations alone should NOT match a chiral mirror: dRot=%v dFull=%v", dRot, dFull)
	}
	// Histogram-model invariant distances must never increase with a
	// larger transformation set.
	for _, m := range []Model{ModelVolume, ModelSolidAngle} {
		if e.Distance(m, InvRotoReflection, a, b) > e.Distance(m, InvRotation90, a, b)+1e-12 {
			t.Errorf("%v: 48-group distance exceeds 24-group distance", m)
		}
	}
}

// Same-class parts must be closer than cross-class parts on average under
// the vector set model — the paper's core effectiveness claim in
// miniature.
func TestVectorSetModelSeparatesClasses(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(9))
	var tires, blocks []*Object
	for i := 0; i < 5; i++ {
		tires = append(tires, e.Extract(cadgen.Part{Name: "t", Solid: cadgen.Tire(rng)}))
		blocks = append(blocks, e.Extract(cadgen.Part{Name: "e", Solid: cadgen.EngineBlock(rng)}))
	}
	var intra, inter float64
	var intraN, interN int
	all := [][]*Object{tires, blocks}
	for gi, g := range all {
		for _, a := range g {
			for gj, h := range all {
				for _, b := range h {
					if a == b {
						continue
					}
					d := e.Distance(ModelVectorSet, InvRotoReflection, a, b)
					if gi == gj {
						intra += d
						intraN++
					} else {
						inter += d
						interN++
					}
				}
			}
		}
	}
	if intra/float64(intraN) >= inter/float64(interN) {
		t.Errorf("vector set model: intra %v ≥ inter %v",
			intra/float64(intraN), inter/float64(interN))
	}
}

// The vector set distance never exceeds the cover-sequence (rank-aligned)
// distance for equal-cardinality full sets: free matching can only help.
func TestVectorSetNeverWorseThanRankAlignment(t *testing.T) {
	e := newTestEngine(t)
	parts := cadgen.CarDataset(5)[:16]
	e.AddParts(parts)
	objs := e.Objects()
	for i := 0; i < len(objs); i++ {
		for j := i + 1; j < len(objs); j++ {
			a, b := objs[i], objs[j]
			if len(a.VSet) != e.cfg.Covers || len(b.VSet) != e.cfg.Covers {
				continue // padding makes the comparison apples-to-oranges
			}
			perm := e.Distance(ModelCoverSeqPerm, InvNone, a, b)
			rank := e.Distance(ModelCoverSeq, InvNone, a, b)
			if perm > rank+1e-9 {
				t.Fatalf("objects %d,%d: perm distance %v > rank distance %v", i, j, perm, rank)
			}
		}
	}
}

func TestMatchingStats(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(11))
	a := e.Extract(cadgen.Part{Name: "a", Solid: cadgen.Bolt(rng)})
	b := e.Extract(cadgen.Part{Name: "b", Solid: cadgen.Bolt(rng)})
	d, _ := MatchingStats(a, b)
	want := e.Distance(ModelVectorSet, InvNone, a, b)
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("MatchingStats distance %v != model distance %v", d, want)
	}
}

func TestExtractGrid(t *testing.T) {
	e := newTestEngine(t)
	s := csg.NewSphere(geom.V(0, 0, 0), 1)
	gH, _ := normalize.VoxelizeNormalized(s, 12)
	gC, _ := normalize.VoxelizeNormalized(s, 12)
	o := e.ExtractGrid("sphere", gH, gC)
	if o.Name != "sphere" || len(o.VSet) == 0 {
		t.Error("ExtractGrid failed")
	}
}

// The parallel RowFunc must agree exactly with Distance for every model
// and invariance.
func TestRowFuncMatchesDistance(t *testing.T) {
	e := newTestEngine(t)
	e.AddParts(cadgen.CarDataset(10)[:12])
	objs := e.Objects()
	out := make([]float64, len(objs))
	for _, m := range []Model{ModelVolume, ModelSolidAngle, ModelCoverSeq, ModelCoverSeqPerm, ModelVectorSet} {
		for _, inv := range []Invariance{InvNone, InvRotoReflection} {
			row := e.RowFunc(m, inv)
			for i := 0; i < 3; i++ {
				row(i, out)
				for j := range objs {
					want := e.Distance(m, inv, objs[i], objs[j])
					if out[j] != want {
						t.Fatalf("%v/%v: row(%d)[%d] = %v, Distance = %v", m, inv, i, j, out[j], want)
					}
				}
			}
		}
	}
}

// With UsePCA, an object rotated by an arbitrary (non-90°) angle matches
// its unrotated copy far better than without PCA (paper §3.2's principal
// axis transform).
func TestPCAExtractionArbitraryRotation(t *testing.T) {
	base := csg.Union(
		csg.NewBox(geom.V(-4, -1.5, -0.6), geom.V(4, 1.5, 0.6)),
		csg.NewBox(geom.V(-4, -1.5, -0.6), geom.V(-2, 1.5, 2.5)),
	)
	c, s := math.Cos(0.21), math.Sin(0.21)
	aboutX := geom.Mat3{{1, 0, 0}, {0, c, -s}, {0, s, c}}
	rotated := csg.Transform(base, geom.Rotate(geom.RotationZ(0.53).Mul(aboutX)))

	cfgPlain := testConfig()
	cfgPCA := testConfig()
	cfgPCA.UsePCA = true

	plain, err := NewEngine(cfgPlain)
	if err != nil {
		t.Fatal(err)
	}
	pca, err := NewEngine(cfgPCA)
	if err != nil {
		t.Fatal(err)
	}

	dPlain := plain.Distance(ModelVectorSet, InvRotoReflection,
		plain.Extract(cadgen.Part{Name: "a", Solid: base}),
		plain.Extract(cadgen.Part{Name: "b", Solid: rotated}))
	dPCA := pca.Distance(ModelVectorSet, InvRotoReflection,
		pca.Extract(cadgen.Part{Name: "a", Solid: base}),
		pca.Extract(cadgen.Part{Name: "b", Solid: rotated}))

	if dPCA >= dPlain {
		t.Errorf("PCA alignment did not help: with %v, without %v", dPCA, dPlain)
	}
	if dPCA > 0.5*dPlain {
		t.Logf("note: PCA gain modest: with %v, without %v", dPCA, dPlain)
	}
}

// Scaling invariance toggle (§3.2): two identically shaped boxes of
// different size are identical under the (scale-invariant) default
// distance but distant under the scale-sensitive one.
func TestDistanceScaleSensitive(t *testing.T) {
	e := newTestEngine(t)
	small := e.Extract(cadgen.Part{Name: "s", Solid: csg.NewBox(geom.V(0, 0, 0), geom.V(2, 1, 0.5))})
	big := e.Extract(cadgen.Part{Name: "b", Solid: csg.NewBox(geom.V(0, 0, 0), geom.V(20, 10, 5))})

	for _, m := range []Model{ModelVectorSet, ModelCoverSeq, ModelCoverSeqPerm} {
		invariant := e.Distance(m, InvNone, small, big)
		sensitive := e.DistanceScaleSensitive(m, InvNone, small, big)
		if invariant > 1e-9 {
			t.Errorf("%v: scale-invariant distance = %v, want ≈ 0", m, invariant)
		}
		if sensitive < 10 {
			t.Errorf("%v: scale-sensitive distance = %v, want large", m, sensitive)
		}
		// Self distance stays zero either way.
		if d := e.DistanceScaleSensitive(m, InvRotoReflection, small, small); d > 1e-9 {
			t.Errorf("%v: scale-sensitive self distance = %v", m, d)
		}
	}
}

func TestDistanceScaleSensitiveHistogramPanics(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(1))
	o := e.Extract(cadgen.Part{Name: "x", Solid: cadgen.Nut(rng)})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for histogram model")
		}
	}()
	e.DistanceScaleSensitive(ModelVolume, InvNone, o, o)
}
