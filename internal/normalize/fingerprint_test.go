package normalize_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/cover"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/voxel"
)

// extractionCases pins the dataset extraction byte for byte: per part, the
// normalized grids at r = 15 and r = 30 (occupancy, Origin and CellSize),
// the normalization Info, and the greedy 7-cover sequence of the r = 15
// grid (the vector sets every served database stores). aircraft/1/1250 is
// the benchmark corpus (voxload extracts AircraftDataset(1, 1250) at
// r = 15, k = 7). A change to voxelization or bounds tightening that is
// meant to skip work, not change output, must leave every digest as it is.
var extractionCases = []struct {
	name  string
	short bool // run under -short
	parts func() []cadgen.Part
	want  string
}{
	{"car/1", true, func() []cadgen.Part { return cadgen.CarDataset(1) },
		"62296f120b969f485db4a0f02b3229abc5650698a4deb4673a0e5b10d1e4f5dd"},
	{"car/2", false, func() []cadgen.Part { return cadgen.CarDataset(2) },
		"29f8f3b819a87addaa5a2e650160e10e6c7ace0426b03305ed5537479a2bfe2b"},
	{"aircraft/3/200", true, func() []cadgen.Part { return cadgen.AircraftDataset(3, 200) },
		"df576bb9cec1c2db855cc032f4a87ca58337365faabcb8f240c5af41f2f9c7d5"},
	{"aircraft/1/1250", false, func() []cadgen.Part { return cadgen.AircraftDataset(1, 1250) },
		"b88b49976ec93bb28a0cce590637ba4fd87107884ce83f42aba8132d2921f805"},
}

func TestExtractionFingerprint(t *testing.T) {
	for _, c := range extractionCases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("full dataset under -short")
			}
			h := sha256.New()
			for _, p := range c.parts() {
				g15, info := normalize.VoxelizeNormalized(p.Solid, 15)
				g30, info30 := normalize.VoxelizeNormalized(p.Solid, 30)
				if info30 != info {
					t.Fatalf("%s: Info at r=30 %+v, at r=15 %+v", p.Name, info30, info)
				}
				hashGrid(t, h, g15)
				hashGrid(t, h, g30)
				hashFloats(h, info.Center.X, info.Center.Y, info.Center.Z, info.Extent.X, info.Extent.Y, info.Extent.Z)
				seq := cover.Greedy(g15, 7)
				for _, cv := range seq.Covers {
					hashInts(h, cv.X0, cv.Y0, cv.Z0, cv.X1, cv.Y1, cv.Z1, cv.Sign)
				}
				hashInts(h, seq.Errs...)
				hashInts(h, -1) // sequence terminator
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("extraction digest %s, want %s", got, c.want)
			}
		})
	}
}

func hashGrid(t *testing.T, h hash.Hash, g *voxel.Grid) {
	t.Helper()
	if _, err := g.WriteTo(h); err != nil {
		t.Fatal(err)
	}
}

func hashFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashInts(h hash.Hash, xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		h.Write(b[:])
	}
}
