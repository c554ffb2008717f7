package voxset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/voxel"
)

// helpers for the STL round-trip test
func normalizeVoxelize(p Part, r int) (*voxel.Grid, normalize.Info) {
	return normalize.VoxelizeNormalized(p.Solid, r)
}

func voxelToMesh(g *voxel.Grid, name string) *mesh.Mesh {
	return voxel.ToMesh(g, name)
}

func smallConfig() Config {
	return Config{RHist: 12, RCover: 12, P: 3, KernelRadius: 2, Covers: 5}
}

func carDB(t *testing.T, n int) *Database {
	t.Helper()
	db := MustOpen(smallConfig())
	parts := CarParts(1)
	if n < len(parts) {
		parts = parts[:n]
	}
	db.AddParts(parts)
	return db
}

func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open(Config{RHist: 10, RCover: 10, P: 3, Covers: 3}); err == nil {
		t.Error("expected config error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustOpen should panic")
		}
	}()
	MustOpen(Config{})
}

func TestKNNSelfIsNearest(t *testing.T) {
	db := carDB(t, 40)
	for _, m := range []Model{ModelVolume, ModelSolidAngle, ModelCoverSeq, ModelVectorSet} {
		res := db.KNN(db.Object(5), 3, Query{Model: m})
		if len(res) != 3 {
			t.Fatalf("%v: got %d results", m, len(res))
		}
		if res[0].Dist > 1e-9 {
			t.Errorf("%v: nearest distance %v, want 0", m, res[0].Dist)
		}
		// The query object itself must appear among the zero-distance
		// results (distinct parts may tie at distance 0).
		foundSelf := false
		for _, nb := range res {
			if nb.ID == 5 {
				foundSelf = true
			}
		}
		if !foundSelf && res[len(res)-1].Dist == 0 {
			t.Logf("%v: self crowded out by exact duplicates (ok)", m)
		} else if !foundSelf {
			t.Errorf("%v: self missing from results %+v", m, res)
		}
	}
}

func TestKNNFilterEqualsScan(t *testing.T) {
	db := carDB(t, 60)
	q := db.Object(10)
	a := db.KNN(q, 10, Query{Model: ModelVectorSet, Access: AccessFilter})
	b := db.KNN(q, 10, Query{Model: ModelVectorSet, Access: AccessScan})
	if len(a) != len(b) {
		t.Fatalf("filter %d vs scan %d results", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			t.Errorf("rank %d: filter %v, scan %v", i, a[i].Dist, b[i].Dist)
		}
	}
}

func TestRangeQueryConsistentWithKNN(t *testing.T) {
	db := carDB(t, 50)
	q := db.Object(3)
	knn := db.KNN(q, 5, Query{Model: ModelVectorSet})
	eps := knn[len(knn)-1].Dist
	rq := db.RangeQuery(q, eps, Query{Model: ModelVectorSet})
	if len(rq) < len(knn) {
		t.Errorf("range at k-th distance returned %d < %d objects", len(rq), len(knn))
	}
	for _, nb := range rq {
		if nb.Dist > eps+1e-9 {
			t.Errorf("range result beyond eps: %+v", nb)
		}
	}
}

func TestInvariantQueriesOrderCorrectly(t *testing.T) {
	db := carDB(t, 30)
	q := db.Object(0)
	res := db.KNN(q, 10, Query{Model: ModelVectorSet, Invariance: InvRotoReflection})
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Error("results not sorted")
		}
	}
	if res[0].ID != 0 {
		t.Error("self should still be nearest under invariance")
	}
}

func TestLastIOPopulated(t *testing.T) {
	db := carDB(t, 40)
	db.KNN(db.Object(0), 5, Query{Model: ModelVectorSet})
	io := db.LastIO()
	if io.PageAccesses == 0 || io.BytesRead == 0 || io.IOTime == 0 {
		t.Errorf("IO stats empty: %+v", io)
	}
	// Scan must read more pages than the filter path.
	db.KNN(db.Object(0), 5, Query{Model: ModelVectorSet, Access: AccessScan})
	scanIO := db.LastIO()
	if scanIO.PageAccesses == 0 {
		t.Error("scan should charge pages")
	}
}

func TestClusterFindsCarClasses(t *testing.T) {
	db := MustOpen(smallConfig())
	parts := CarParts(3)
	// Two visually distinct families, a handful each.
	var sel []Part
	for _, p := range parts {
		if (p.Class == "tire" || p.Class == "engineblock") && len(sel) < 24 {
			sel = append(sel, p)
		}
	}
	db.AddParts(sel)
	r := db.Cluster(ModelVectorSet, InvRotoReflection, 3)
	if len(r.Order) != len(sel) {
		t.Fatalf("ordering covers %d of %d", len(r.Order), len(sel))
	}
	// There must exist a cut recovering ≥ 2 clusters with decent purity.
	truth := PartLabels(sel)
	bestPurity, bestClusters := 0.0, 0
	maxFinite := 0.0
	for _, v := range r.Reach {
		if !math.IsInf(v, 1) && v > maxFinite {
			maxFinite = v
		}
	}
	for _, f := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
		labels := ClusterLabels(r, maxFinite*f)
		n := 0
		for _, l := range labels {
			if l > n {
				n = l
			}
		}
		if p := ClusterPurity(labels, truth); n >= 2 && p > bestPurity {
			bestPurity, bestClusters = p, n
		}
	}
	if bestClusters < 2 || bestPurity < 0.8 {
		t.Errorf("no cut separates tires from engine blocks: clusters=%d purity=%v",
			bestClusters, bestPurity)
	}
}

func TestRenderReachability(t *testing.T) {
	db := carDB(t, 25)
	r := db.Cluster(ModelVectorSet, InvNone, 3)
	art := RenderReachability(r, 50, 8)
	if !strings.Contains(art, "max reachability") {
		t.Error("missing plot footer")
	}
}

func TestExtractQueryNotInDatabase(t *testing.T) {
	db := carDB(t, 20)
	q := db.Extract(CarParts(99)[0])
	res := db.KNN(q, 5, Query{Model: ModelVectorSet})
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	// Query is a tire; nearest stored objects should include tires
	// (objects 0..n are ordered by family in CarParts).
	if res[0].Dist == 0 {
		t.Log("note: external query coincides with a stored object")
	}
}

func TestDatabaseString(t *testing.T) {
	db := carDB(t, 10)
	s := db.String()
	if !strings.Contains(s, "objects: 10") {
		t.Errorf("String = %q", s)
	}
}

func TestFilterRefinementsCounter(t *testing.T) {
	db := carDB(t, 60)
	db.KNN(db.Object(0), 5, Query{Model: ModelVectorSet, Access: AccessFilter})
	if db.FilterRefinements() == 0 {
		t.Error("filter refinements not counted")
	}
	if db.FilterRefinements() >= int64(db.Len()) {
		t.Log("note: filter refined every object (small dataset)")
	}
}

func TestAircraftPartsGeneration(t *testing.T) {
	parts := AircraftParts(4, 100)
	if len(parts) != 100 {
		t.Fatalf("got %d parts", len(parts))
	}
	labels := PartLabels(parts)
	if len(labels) != 100 || labels[0] == 0 {
		t.Error("labels wrong")
	}
}

func TestKNNMTreeEqualsScan(t *testing.T) {
	db := carDB(t, 50)
	q := db.Object(7)
	a := db.KNN(q, 8, Query{Model: ModelVectorSet, Access: AccessMTree})
	b := db.KNN(q, 8, Query{Model: ModelVectorSet, Access: AccessScan})
	if len(a) != len(b) {
		t.Fatalf("mtree %d vs scan %d results", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			t.Errorf("rank %d: mtree %v, scan %v", i, a[i].Dist, b[i].Dist)
		}
	}
	// Range queries agree as well.
	eps := a[len(a)-1].Dist
	ra := db.RangeQuery(q, eps, Query{Model: ModelVectorSet, Access: AccessMTree})
	rb := db.RangeQuery(q, eps, Query{Model: ModelVectorSet, Access: AccessScan})
	if len(ra) != len(rb) {
		t.Errorf("range: mtree %d vs scan %d results", len(ra), len(rb))
	}
}

func TestExtractMeshMatchesCSG(t *testing.T) {
	db := carDB(t, 10)
	// The same box as mesh and as CSG part must extract near-identical
	// features.
	m := mesh.NewBox(geom.V(0, 0, 0), geom.V(4, 2, 1))
	om := db.ExtractMesh("meshbox", m)
	oc := db.Extract(Part{Name: "csgbox", Solid: csg.NewBox(geom.V(0, 0, 0), geom.V(4, 2, 1))})
	d := db.Engine().Distance(ModelVectorSet, InvNone, om, oc)
	if d > 3 { // voxelization boundary differences only
		t.Errorf("mesh vs CSG extraction distance = %v", d)
	}
	if om.Info.Extent != (geom.Vec3{X: 4, Y: 2, Z: 1}) {
		t.Errorf("mesh extent = %v", om.Info.Extent)
	}
}

func TestAddObjectQueriable(t *testing.T) {
	db := carDB(t, 10)
	m := mesh.NewSphere(geom.V(0, 0, 0), 1, 24, 12)
	o := db.ExtractMesh("meshsphere", m)
	id := db.AddObject(o)
	res := db.KNN(o, 1, Query{Model: ModelVectorSet})
	if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Errorf("stored mesh object not retrievable: %+v", res)
	}
}

func TestReadSTLThroughFacade(t *testing.T) {
	var buf bytes.Buffer
	src := mesh.NewCylinder(geom.V(0, 0, 0), 1, 3, 32)
	if err := mesh.WriteSTL(&buf, src); err != nil {
		t.Fatal(err)
	}
	m, err := ReadSTL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Triangles) != len(src.Triangles) {
		t.Errorf("triangles = %d, want %d", len(m.Triangles), len(src.Triangles))
	}
}

func TestPartialKNN(t *testing.T) {
	db := carDB(t, 30)
	q := db.Object(2)
	res := db.PartialKNN(q, 5, 2)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	// Self always scores zero under partial matching.
	if res[0].Dist != 0 {
		t.Errorf("best partial score = %v, want 0", res[0].Dist)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Error("results not sorted")
		}
	}
	// Partial scores never exceed the full matching distance.
	for _, nb := range res {
		full := db.Engine().Distance(ModelVectorSet, InvNone, q, db.Object(nb.ID))
		if nb.Dist > full+1e-9 {
			t.Errorf("partial %v exceeds full %v", nb.Dist, full)
		}
	}
	if db.LastIO().PageAccesses == 0 {
		t.Error("partial query should charge I/O")
	}
}

// TestNonPositiveKAndPairs: k ≤ 0 answers nil on every model × access ×
// invariance path, scale-sensitive or not, and in PartialKNN; pairs ≤ 0
// means as many pairs as the two sets allow.
func TestNonPositiveKAndPairs(t *testing.T) {
	db := carDB(t, 12)
	q := db.Object(3)
	models := []Model{ModelVolume, ModelSolidAngle, ModelCoverSeq, ModelCoverSeqPerm, ModelVectorSet}
	accesses := []Access{AccessAuto, AccessFilter, AccessScan, AccessMTree}
	invs := []Invariance{InvNone, InvRotation90, InvRotoReflection}
	for _, k := range []int{-1, 0} {
		for _, m := range models {
			for _, a := range accesses {
				for _, inv := range invs {
					for _, scale := range []bool{false, true} {
						opt := Query{Model: m, Access: a, Invariance: inv, ScaleSensitive: scale}
						if got := db.KNN(q, k, opt); got != nil {
							t.Errorf("KNN(k=%d, %+v) = %v, want nil", k, opt, got)
						}
					}
				}
			}
		}
		for _, pairs := range []int{-1, 0, 2} {
			if got := db.PartialKNN(q, k, pairs); got != nil {
				t.Errorf("PartialKNN(k=%d, pairs=%d) = %v, want nil", k, pairs, got)
			}
		}
	}
	want := db.PartialKNN(q, db.Len(), math.MaxInt)
	if want[0].ID != q.ID || want[0].Dist != 0 || want[len(want)-1].Dist == 0 {
		t.Fatalf("all-pairs partial ranking = %v: want self first at 0 and some object above 0", want)
	}
	for _, pairs := range []int{-1, 0} {
		got := db.PartialKNN(q, db.Len(), pairs)
		if len(got) != len(want) {
			t.Fatalf("PartialKNN(pairs=%d) answered %d objects, want %d", pairs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PartialKNN(pairs=%d)[%d] = %+v, want %+v (all pairs)", pairs, i, got[i], want[i])
			}
		}
	}
}

func TestScaleSensitiveQueries(t *testing.T) {
	db := MustOpen(smallConfig())
	// Same shape, three sizes.
	for i, scale := range []float64{1, 1.05, 10} {
		db.AddParts([]Part{{
			Name:  []string{"small", "small2", "huge"}[i],
			Solid: csg.NewBox(geom.V(0, 0, 0), geom.V(4*scale, 2*scale, 1*scale)),
		}})
	}
	q := db.Object(0)
	// Scale-invariant: all three are ≈ identical.
	inv := db.KNN(q, 3, Query{Model: ModelVectorSet})
	if inv[2].Dist > 2 {
		t.Errorf("scale-invariant distances = %+v, want all ≈ 0", inv)
	}
	// Scale-sensitive: the similar-size twin ranks before the huge copy.
	sens := db.KNN(q, 3, Query{Model: ModelVectorSet, ScaleSensitive: true})
	if sens[0].ID != 0 {
		t.Errorf("self not first: %+v", sens)
	}
	if sens[1].ID != 1 || sens[2].ID != 2 {
		t.Errorf("scale-sensitive order = %+v, want small2 before huge", sens)
	}
	if sens[2].Dist < 10 {
		t.Errorf("huge copy distance = %v, want large", sens[2].Dist)
	}
}

func TestDatabaseSaveLoad(t *testing.T) {
	db := carDB(t, 25)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("loaded %d, want %d", back.Len(), db.Len())
	}
	q := db.Object(3)
	a := db.KNN(q, 5, Query{Model: ModelVectorSet})
	b := back.KNN(back.Object(3), 5, Query{Model: ModelVectorSet})
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
			t.Fatalf("rank %d differs after reload: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAddSTLDirRoundTrip(t *testing.T) {
	// Export a few parts as STL surface meshes, then load them back into a
	// fresh database via the real-CAD-data path and verify retrieval.
	dir := t.TempDir()
	src := carDB(t, 6)
	for i := 0; i < 3; i++ {
		o := src.Object(i)
		// Render the part's voxel surface as the STL payload.
		p := CarParts(1)[i]
		g, _ := normalizeVoxelize(p, 12)
		m := voxelToMesh(g, o.Name)
		f, err := os.Create(filepath.Join(dir, o.Name+".stl"))
		if err != nil {
			t.Fatal(err)
		}
		if err := mesh.WriteSTL(f, m); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	// A non-STL file and a corrupt STL must be skipped/reported, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.stl"), []byte("solid x\nfacet"), 0o644); err != nil {
		t.Fatal(err)
	}

	db := MustOpen(smallConfig())
	added, errs := db.AddSTLDir(dir)
	if added != 3 {
		t.Fatalf("added %d parts, want 3 (errs: %v)", added, errs)
	}
	if len(errs) != 1 {
		t.Errorf("expected 1 parse error for broken.stl, got %v", errs)
	}
	// The loaded tire must retrieve its fellow tires as nearest objects.
	res := db.KNN(db.Object(0), 3, Query{Model: ModelVectorSet})
	if len(res) != 3 || res[0].Dist != 0 {
		t.Errorf("self-retrieval failed: %+v", res)
	}
}
