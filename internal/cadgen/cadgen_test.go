package cadgen

import (
	"math/rand"
	"testing"

	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/voxel"
)

func TestCarDatasetComposition(t *testing.T) {
	parts := CarDataset(1)
	if len(parts) != 200 {
		t.Errorf("car dataset has %d parts, want 200", len(parts))
	}
	classes := classesOf(parts)
	want := []string{"tire", "door", "fender", "engineblock", "seat", "bracket"}
	if len(classes) != len(want) {
		t.Fatalf("classes = %v", classes)
	}
	for i, c := range want {
		if classes[i] != c {
			t.Errorf("class %d = %q, want %q", i, classes[i], c)
		}
	}
	names := map[string]bool{}
	for _, p := range parts {
		if names[p.Name] {
			t.Fatalf("duplicate part name %q", p.Name)
		}
		names[p.Name] = true
		if p.ClassID < 1 || p.ClassID > 6 {
			t.Fatalf("part %q has class id %d", p.Name, p.ClassID)
		}
	}
}

func TestCarDatasetDeterministic(t *testing.T) {
	a := CarDataset(7)
	b := CarDataset(7)
	for i := range a {
		ga, _ := normalize.VoxelizeNormalized(a[i].Solid, 10)
		gb, _ := normalize.VoxelizeNormalized(b[i].Solid, 10)
		if !ga.Equal(gb) {
			t.Fatalf("part %d differs between equal seeds", i)
		}
		if i > 20 {
			break // spot check
		}
	}
}

func TestAircraftDatasetComposition(t *testing.T) {
	parts := AircraftDataset(2, 500)
	if len(parts) != 500 {
		t.Fatalf("aircraft dataset has %d parts, want 500", len(parts))
	}
	byClass := map[string]int{}
	for _, p := range parts {
		byClass[p.Class]++
	}
	// Fastener-heavy mix: nuts and bolts dominate, wings are rare.
	if byClass["nut"] < byClass["wing"] || byClass["bolt"] < byClass["wing"] {
		t.Errorf("class mix wrong: %v", byClass)
	}
	if byClass["wing"] == 0 {
		t.Error("dataset must contain wings")
	}
}

func TestAircraftDatasetSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AircraftDataset(1, 0)
}

// Every part family must voxelize to a non-trivial, mostly connected
// shape at the paper's resolutions. The families are visited in name order:
// every draw comes from one seeded source, so the shapes checked must not
// depend on map iteration order.
func TestAllFamiliesVoxelizeNontrivially(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	builders := []struct {
		name  string
		build func(*rand.Rand) csg.Solid
	}{
		{"airbracket", AircraftBracket}, {"bolt", Bolt}, {"bracket", MiscBracket},
		{"door", Door}, {"engineblock", EngineBlock}, {"fender", Fender},
		{"nut", Nut}, {"rivet", Rivet}, {"seat", SeatEnvelope},
		{"tire", Tire}, {"washer", Washer}, {"wing", Wing},
	}
	for _, b := range builders {
		name, build := b.name, b.build
		for trial := 0; trial < 3; trial++ {
			s := build(rng)
			g, info := normalize.VoxelizeNormalized(s, 15)
			if g.Count() < 15 {
				t.Errorf("%s trial %d: only %d voxels at r=15", name, trial, g.Count())
			}
			if g.Count() > 15*15*15*95/100 {
				t.Errorf("%s trial %d: %d voxels — degenerate full block", name, trial, g.Count())
			}
			if info.Extent.MaxComponent() <= 0 {
				t.Errorf("%s: zero extent", name)
			}
			// The object must be dominated by one connected component
			// (voxelization can split thin features).
			lc := voxel.LargestComponent(g)
			if float64(lc.Count()) < 0.6*float64(g.Count()) {
				t.Errorf("%s trial %d: largest component %d of %d voxels",
					name, trial, lc.Count(), g.Count())
			}
		}
	}
}

// Same-family parts must be more similar than cross-family parts on
// average (sanity of the class structure itself, using plain voxel XOR).
func TestFamiliesAreCoherent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	families := []func(*rand.Rand) csg.Solid{Tire, EngineBlock, Washer}
	const perFam, r = 4, 12
	var grids [][]*voxel.Grid
	for _, build := range families {
		var gs []*voxel.Grid
		for i := 0; i < perFam; i++ {
			g, _ := normalize.VoxelizeNormalized(build(rng), r)
			gs = append(gs, g)
		}
		grids = append(grids, gs)
	}
	var intra, inter, intraN, interN float64
	for fi := range grids {
		for fj := range grids {
			for _, a := range grids[fi] {
				for _, b := range grids[fj] {
					if a == b {
						continue
					}
					d := float64(a.XORCount(b))
					if fi == fj {
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
	if intra/intraN >= inter/interN {
		t.Errorf("intra-family XOR %.1f ≥ inter-family %.1f: families not coherent",
			intra/intraN, inter/interN)
	}
}

func TestWingsAreLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wing := Wing(rng)
	nut := Nut(rng)
	wb := normalize.TightBounds(wing).Size().MaxComponent()
	nb := normalize.TightBounds(nut).Size().MaxComponent()
	if wb < 5*nb {
		t.Errorf("wing extent %v not ≫ nut extent %v", wb, nb)
	}
}

func TestLabels(t *testing.T) {
	parts := CarDataset(1)
	labels := Labels(parts)
	if len(labels) != len(parts) {
		t.Fatal("label count")
	}
	if labels[0] != 1 {
		t.Errorf("first label = %d", labels[0])
	}
}

// classesOf returns the distinct class names of a part list, in first-seen
// order.
func classesOf(parts []Part) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range parts {
		if !seen[p.Class] {
			seen[p.Class] = true
			out = append(out, p.Class)
		}
	}
	return out
}
