// Package cadgen synthesizes the two evaluation datasets of paper §5.1 as
// parametric CSG part families:
//
//   - the Car Dataset: ≈200 parts in the classes the paper names — tires,
//     doors, fenders, engine blocks and kinematic envelopes of seats —
//     plus miscellaneous small parts;
//   - the Aircraft Dataset: 5000 parts, "many small objects (e.g. nuts,
//     bolts, etc.) and a few large ones (e.g. wings)".
//
// The proprietary industrial data is unavailable; these generators are
// the documented substitution (DESIGN.md §3). Every part carries its
// family label, which makes the paper's visual cluster evaluation
// (Figure 10) quantitative: a similarity model is good exactly when
// OPTICS valleys coincide with part families. Intra-family parameter
// jitter, random placement and random 90°-orientations exercise the
// normalization and invariance machinery of §3.2.
package cadgen

import (
	"fmt"
	"math/rand"

	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
)

// Part is one synthetic CAD object.
type Part struct {
	// Name is a unique human-readable identifier, e.g. "tire-17".
	Name string
	// Class is the part family label, e.g. "tire".
	Class string
	// ClassID numbers the class within its dataset (1-based).
	ClassID int
	// Solid is the part geometry, placed somewhere in world space.
	Solid csg.Solid
}

// place randomly translates, scales and 90°-rotates a canonical solid:
// the invariances the similarity models must factor out. A mild
// *anisotropic* stretch is applied as well — real part families come in
// different aspect ratios (long and short bolts, wide and narrow doors),
// which is exactly the intra-class variation the paper's industrial
// datasets exhibit. The per-axis factors are recoverable from the stored
// normalization Info (§3.2).
func place(s csg.Solid, rng *rand.Rand) csg.Solid {
	syms := geom.Rotations90()
	rot := syms[rng.Intn(len(syms))]
	scale := 0.5 + rng.Float64()*2
	stretch := geom.V(
		jitter(rng, 1, 0.25),
		jitter(rng, 1, 0.25),
		jitter(rng, 1, 0.25),
	).Scale(scale)
	tr := geom.V(rng.Float64()*200-100, rng.Float64()*200-100, rng.Float64()*200-100)
	a := geom.Translate(tr).
		Compose(geom.Rotate(rot.Matrix())).
		Compose(geom.ScaleAffine(stretch))
	return csg.Transform(s, a)
}

// jitter returns base·(1 ± amount) uniformly.
func jitter(rng *rand.Rand, base, amount float64) float64 {
	return base * (1 + amount*(2*rng.Float64()-1))
}

// ---------------------------------------------------------------------------
// Car part families (§5.1: "a set of tires, doors, fenders, engine blocks
// and kinematic envelopes of seats")

// Tire builds a torus-shaped tire.
func Tire(rng *rand.Rand) csg.Solid {
	major := jitter(rng, 3, 0.25)
	minor := jitter(rng, 1, 0.3)
	return csg.NewTorus(geom.V(0, 0, 0), 2, major, minor)
}

// Door builds a curved car-door panel: a thin slice of a large cylinder
// shell clipped to a rectangle, with a window cut-out whose position and
// size vary between door designs, an optional armrest bulge, and random
// handedness (left/right doors are mirror images — the paper's own
// motivating example for tunable reflection invariance).
func Door(rng *rand.Rand) csg.Solid {
	r := jitter(rng, 15, 0.2)      // body curvature radius
	thick := jitter(rng, 1.3, 0.2) // panel thickness (≳ 2 voxels at r=15)
	width := jitter(rng, 9, 0.25)  // door width (y)
	height := jitter(rng, 8, 0.25) // door height (z)
	shell := csg.Difference(
		csg.NewCylinder(geom.V(-r, 0, 0), 2, r+thick, 2*height),
		csg.NewCylinder(geom.V(-r, 0, 0), 2, r, 2.2*height),
	)
	body := csg.Intersect(shell,
		csg.NewBox(geom.V(-thick*3, -width/2, -height/2), geom.V(thick*3, width/2, height/2)))
	// Window: off-center, size and position vary strongly between designs
	// (front vs rear doors), moving histogram mass between cells while the
	// cover structure stays "panel minus window".
	wy := width * jitter(rng, 0.3, 0.4)
	wc := width * (rng.Float64()*0.3 - 0.15)
	wz0 := height * jitter(rng, 0.05, 0.8)
	wz1 := wz0 + height*jitter(rng, 0.38, 0.25)
	win := csg.NewBox(
		geom.V(-thick*4, wc-wy, wz0),
		geom.V(thick*4, wc+wy, wz1),
	)
	door := csg.Difference(body, win)
	if rng.Intn(2) == 0 { // armrest bulge on some designs
		door = csg.Union(door, csg.NewBox(
			geom.V(0, wc-width*0.2, -height*0.1),
			geom.V(thick*2.5, wc+width*0.2, height*0.02),
		))
	}
	if rng.Intn(2) == 0 { // right-hand door: mirror image
		return csg.Transform(door, geom.ScaleAffine(geom.V(1, -1, 1)))
	}
	return door
}

// Fender builds a quarter-cylinder wheel-arch shell.
func Fender(rng *rand.Rand) csg.Solid {
	r := jitter(rng, 4, 0.2)
	// The shell's largest extent is 2(r+thick), so at the cover resolution
	// r = 15 it is 7.5·thick/(r+thick) voxels thick: thick ≥ 0.4·r keeps
	// that above 2 voxels, the least a curved shell needs to voxelize
	// face-connected.
	thick := r * jitter(rng, 0.45, 0.1)
	width := jitter(rng, 3, 0.3)
	shell := csg.Difference(
		csg.NewCylinder(geom.V(0, 0, 0), 1, r+thick, width),
		csg.NewCylinder(geom.V(0, 0, 0), 1, r, width*1.1),
	)
	// Keep the upper quarter (x ≥ 0, z ≥ 0 would be an eighth; use z ≥ 0).
	return csg.Intersect(shell,
		csg.NewHalfspace(geom.V(0, 0, -1), 0), // z ≥ 0
	)
}

// EngineBlock builds a box with cylinder bores, a sump and a variable set
// of attachments (head, intake, mounts) whose presence, size and position
// differ between engines — same cover structure, shifting mass.
func EngineBlock(rng *rand.Rand) csg.Solid {
	l := jitter(rng, 8, 0.25)
	w := jitter(rng, 4, 0.25)
	h := jitter(rng, 5, 0.25)
	block := csg.NewBox(geom.V(-l/2, -w/2, -h/2), geom.V(l/2, w/2, h/2))
	bores := 3 + rng.Intn(4)
	boreR := w * jitter(rng, 0.28, 0.2)
	var holes []csg.Solid
	for i := 0; i < bores; i++ {
		cx := -l/2 + (float64(i)+0.5)*l/float64(bores)
		holes = append(holes, csg.NewCylinder(geom.V(cx, 0, h/4), 2, boreR, h*0.7))
	}
	solid := csg.Difference(block, csg.Union(holes...))
	// Sump: offset varies (front- vs mid-sump designs).
	so := l * (rng.Float64()*0.3 - 0.15)
	parts := []csg.Solid{solid, csg.NewBox(
		geom.V(so-l*0.35, -w*0.35, -h*0.85), geom.V(so+l*0.35, w*0.35, -h/2))}
	if rng.Intn(2) == 0 { // cylinder head block
		parts = append(parts, csg.NewBox(
			geom.V(-l*0.45, -w*0.4, h/2), geom.V(l*0.45, w*0.4, h*jitter(rng, 0.75, 0.2))))
	}
	if rng.Intn(2) == 0 { // side intake
		parts = append(parts, csg.NewCylinder(
			geom.V(l*(rng.Float64()*0.4-0.2), w*0.6, 0), 1, w*0.2, w*0.7))
	}
	return csg.Union(parts...)
}

// SeatEnvelope builds the kinematic envelope of a seat: a cushion block
// and a swept, tilted backrest block.
func SeatEnvelope(rng *rand.Rand) csg.Solid {
	w := jitter(rng, 5, 0.15) // seat width
	d := jitter(rng, 5, 0.2)  // cushion depth
	hb := jitter(rng, 6, 0.2) // backrest height
	tilt := jitter(rng, 0.35, 0.4)
	cushion := csg.NewBox(geom.V(0, -w/2, 0), geom.V(d, w/2, 1.5))
	back := csg.Transform(
		csg.NewBox(geom.V(-1.2, -w/2, 0), geom.V(0.3, w/2, hb)),
		geom.Rotate(geom.RotationY(-tilt)),
	)
	headrest := csg.Transform(
		csg.NewBox(geom.V(-1.0, -w/4, hb), geom.V(0.2, w/4, hb+1.2)),
		geom.Rotate(geom.RotationY(-tilt)),
	)
	return csg.Union(cushion, back, headrest)
}

// MiscBracket builds an L- or U-shaped bracket with drill holes — filler
// parts giving the car dataset some unlabeled variety. Arm proportions
// vary strongly; bracket thickness is substantial so brackets stay
// distinguishable from thin panels after scale normalization.
func MiscBracket(rng *rand.Rand) csg.Solid {
	l := jitter(rng, 4, 0.4)
	w := jitter(rng, 2.4, 0.4)
	t := jitter(rng, 1.0, 0.3)
	base := csg.NewBox(geom.V(0, 0, 0), geom.V(l, w, t))
	up := csg.NewBox(geom.V(0, 0, 0), geom.V(t, w, l*jitter(rng, 0.7, 0.4)))
	b := csg.Union(base, up)
	if rng.Intn(2) == 0 { // U-shape
		b = csg.Union(b, csg.NewBox(geom.V(l-t, 0, 0), geom.V(l, w, l*jitter(rng, 0.5, 0.4))))
	}
	hole := csg.NewCylinder(geom.V(l*jitter(rng, 0.6, 0.3), w/2, 0), 2, w*0.25, 4*t)
	return csg.Difference(b, hole)
}

// carFamilies defines the car dataset composition (≈200 parts).
var carFamilies = []struct {
	class string
	count int
	build func(*rand.Rand) csg.Solid
}{
	{"tire", 35, Tire},
	{"door", 35, Door},
	{"fender", 30, Fender},
	{"engineblock", 30, EngineBlock},
	{"seat", 35, SeatEnvelope},
	{"bracket", 35, MiscBracket},
}

// CarDataset generates the ≈200-part car dataset.
func CarDataset(seed int64) []Part {
	rng := rand.New(rand.NewSource(seed))
	var parts []Part
	for classID, fam := range carFamilies {
		for i := 0; i < fam.count; i++ {
			parts = append(parts, Part{
				Name:    fmt.Sprintf("%s-%d", fam.class, i),
				Class:   fam.class,
				ClassID: classID + 1,
				Solid:   place(fam.build(rng), rng),
			})
		}
	}
	return parts
}

// ---------------------------------------------------------------------------
// Aircraft part families (§5.1: "many small objects (e.g. nuts, bolts,
// etc.) and a few large ones (e.g. wings)")

// hexPrism builds a hexagonal prism along z by intersecting three
// rotated slabs.
func hexPrism(acrossFlats, height float64) csg.Solid {
	slab := func(angle float64) csg.Solid {
		return csg.Transform(
			csg.NewBox(
				geom.V(-acrossFlats, -acrossFlats/2, -height/2),
				geom.V(acrossFlats, acrossFlats/2, height/2),
			),
			geom.Rotate(geom.RotationZ(angle)),
		)
	}
	return csg.Intersect(slab(0), slab(1.0471975511965976), slab(2.0943951023931953))
}

// Nut builds a hex nut with a threaded bore.
func Nut(rng *rand.Rand) csg.Solid {
	af := jitter(rng, 2, 0.25)
	h := jitter(rng, 1, 0.3)
	bore := af * jitter(rng, 0.3, 0.15)
	return csg.Difference(hexPrism(af, h), csg.NewCylinder(geom.V(0, 0, 0), 2, bore, h*1.5))
}

// Bolt builds a bolt: hex head plus cylindrical shank.
func Bolt(rng *rand.Rand) csg.Solid {
	af := jitter(rng, 1.6, 0.2)
	headH := jitter(rng, 0.8, 0.2)
	shankR := af * jitter(rng, 0.35, 0.1)
	shankL := jitter(rng, 4, 0.4)
	head := hexPrism(af, headH)
	shank := csg.NewCylinder(geom.V(0, 0, -shankL/2), 2, shankR, shankL)
	return csg.Union(head, shank)
}

// Washer builds a flat annulus.
func Washer(rng *rand.Rand) csg.Solid {
	outer := jitter(rng, 2, 0.25)
	inner := outer * jitter(rng, 0.5, 0.15)
	h := jitter(rng, 0.3, 0.3)
	return csg.Difference(
		csg.NewCylinder(geom.V(0, 0, 0), 2, outer, h),
		csg.NewCylinder(geom.V(0, 0, 0), 2, inner, h*2),
	)
}

// Rivet builds a rivet: cylindrical shank with a domed head.
func Rivet(rng *rand.Rand) csg.Solid {
	r := jitter(rng, 0.6, 0.2)
	l := jitter(rng, 2.5, 0.3)
	headR := r * jitter(rng, 1.8, 0.15)
	shank := csg.NewCylinder(geom.V(0, 0, -l/2), 2, r, l)
	head := csg.Intersect(
		csg.NewSphere(geom.V(0, 0, 0), headR),
		csg.NewHalfspace(geom.V(0, 0, -1), 0), // upper half
	)
	return csg.Union(shank, head)
}

// AircraftBracket builds a small angle bracket with two rivet holes.
func AircraftBracket(rng *rand.Rand) csg.Solid {
	l := jitter(rng, 3, 0.3)
	w := jitter(rng, 1.5, 0.3)
	t := jitter(rng, 0.3, 0.2)
	a := csg.NewBox(geom.V(0, 0, 0), geom.V(l, w, t))
	b := csg.NewBox(geom.V(0, 0, 0), geom.V(t, w, l))
	holes := csg.Union(
		csg.NewCylinder(geom.V(l*0.7, w/2, 0), 2, w*0.2, t*4),
		csg.NewCylinder(geom.V(l*0.3, w/2, 0), 2, w*0.2, t*4),
	)
	return csg.Difference(csg.Union(a, b), holes)
}

// Wing builds a large tapered wing: a long slab thinned toward the tip
// and the trailing edge.
func Wing(rng *rand.Rand) csg.Solid {
	span := jitter(rng, 40, 0.25)
	chord := jitter(rng, 10, 0.2)
	thick := jitter(rng, 1.2, 0.2)
	slab := csg.NewBox(geom.V(0, -chord/2, -thick/2), geom.V(span, chord/2, thick/2))
	// Taper in planform: cut the leading corner with a slanted halfspace.
	taper := csg.NewHalfspace(geom.V(chord*0.4, span*0.8, 0).Normalize(),
		geom.V(chord*0.4, span*0.8, 0).Normalize().Dot(geom.V(0, chord/2, 0)))
	return csg.Intersect(slab, taper)
}

// aircraftFamilies defines the aircraft dataset composition. Weights are
// proportional counts; wings stay rare and large.
var aircraftFamilies = []struct {
	class  string
	weight int
	build  func(*rand.Rand) csg.Solid
}{
	{"nut", 1400, Nut},
	{"bolt", 1400, Bolt},
	{"washer", 1000, Washer},
	{"rivet", 700, Rivet},
	{"bracket", 450, AircraftBracket},
	{"wing", 50, Wing},
}

// AircraftDataset generates n aircraft parts (paper: n = 5000) with the
// documented family mix.
func AircraftDataset(seed int64, n int) []Part {
	if n <= 0 {
		panic("cadgen: dataset size must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	totalWeight := 0
	for _, fam := range aircraftFamilies {
		totalWeight += fam.weight
	}
	var parts []Part
	counts := make([]int, len(aircraftFamilies))
	for classID, fam := range aircraftFamilies {
		quota := fam.weight * n / totalWeight
		if quota == 0 {
			quota = 1
		}
		for i := 0; i < quota && len(parts) < n; i++ {
			parts = append(parts, Part{
				Name:    fmt.Sprintf("%s-%d", fam.class, i),
				Class:   fam.class,
				ClassID: classID + 1,
				Solid:   place(fam.build(rng), rng),
			})
			counts[classID]++
		}
	}
	// Fill any rounding shortfall with the most common family.
	for len(parts) < n {
		i := counts[0]
		parts = append(parts, Part{
			Name:    fmt.Sprintf("%s-%d", aircraftFamilies[0].class, i),
			Class:   aircraftFamilies[0].class,
			ClassID: 1,
			Solid:   place(aircraftFamilies[0].build(rng), rng),
		})
		counts[0]++
	}
	return parts
}

// Labels returns the ClassID of every part.
func Labels(parts []Part) []int {
	out := make([]int, len(parts))
	for i, p := range parts {
		out[i] = p.ClassID
	}
	return out
}
