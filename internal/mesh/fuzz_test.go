package mesh

import (
	"bytes"
	"testing"

	"github.com/voxset/voxset/internal/geom"
)

// FuzzReadSTL exercises the STL parser with arbitrary bytes: it must
// never panic, and any mesh it accepts must round-trip through the
// writer.
func FuzzReadSTL(f *testing.F) {
	// Seed corpus: valid binary, valid ASCII, truncations, garbage.
	var bin bytes.Buffer
	_ = WriteSTL(&bin, NewBox(geom.V(0, 0, 0), geom.V(1, 1, 1)))
	f.Add(bin.Bytes())
	f.Add(bin.Bytes()[:50])
	f.Add(bin.Bytes()[:100])

	var asc bytes.Buffer
	_ = WriteSTLASCII(&asc, NewSphere(geom.V(0, 0, 0), 1, 4, 3))
	f.Add(asc.Bytes())
	f.Add([]byte("solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0\nendloop\nendfacet\n"))
	f.Add([]byte("solid\n"))
	f.Add([]byte{})
	f.Add([]byte("random garbage that is not STL at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadSTL(bytes.NewReader(data))
		if err != nil || m == nil {
			return
		}
		// Accepted meshes must round-trip.
		var buf bytes.Buffer
		if err := WriteSTL(&buf, m); err != nil {
			t.Fatalf("write of accepted mesh failed: %v", err)
		}
		back, err := ReadSTL(&buf)
		if err != nil {
			t.Fatalf("round-trip read failed: %v", err)
		}
		if len(back.Triangles) != len(m.Triangles) {
			t.Fatalf("round-trip triangle count %d != %d", len(back.Triangles), len(m.Triangles))
		}
	})
}

// FuzzSTLParse is the hardened parser fuzz target: arbitrary bytes must
// never panic the parser, structurally corrupt input (truncated binary
// records, malformed ASCII vertices) must always be reported as an
// error, and any accepted mesh must survive a write → reparse cycle with
// identical geometry. ViewSTL must agree with the parser on every input:
// the same error text, or the same triangles and bounds. Seed corpus lives in
// testdata/fuzz/FuzzSTLParse.
func FuzzSTLParse(f *testing.F) {
	for _, seed := range stlSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadSTL(bytes.NewReader(data))
		v, verr := ViewSTL(data)
		switch {
		case err != nil:
			if verr == nil || verr.Error() != err.Error() || v != nil {
				t.Fatalf("parser error %q, view error %v (view %v)", err, verr, v)
			}
		case verr != nil:
			t.Fatalf("parser accepted, view error %q", verr)
		case v.Len() != len(m.Triangles):
			t.Fatalf("view has %d triangles, parser %d", v.Len(), len(m.Triangles))
		default:
			for i, tr := range m.Triangles {
				if v.Triangle(i) != tr {
					t.Fatalf("triangle %d: view %v, parser %v", i, v.Triangle(i), tr)
				}
			}
			if b, finite := FiniteBounds(v); !finite || b != m.Bounds() {
				t.Fatalf("view bounds %v (finite %v), parsed mesh's %v", b, finite, m.Bounds())
			}
		}
		if err != nil {
			if m != nil {
				t.Fatal("non-nil mesh returned alongside an error")
			}
			return
		}
		if m == nil {
			t.Fatal("nil mesh accepted without error")
		}
		// A binary mesh that declares more triangles than it carries must
		// have been rejected above; re-truncating an accepted binary mesh
		// below its declared size must therefore error too.
		var buf bytes.Buffer
		if err := WriteSTL(&buf, m); err != nil {
			t.Fatalf("write of accepted mesh failed: %v", err)
		}
		raw := buf.Bytes()
		if len(m.Triangles) > 0 {
			if _, err := ReadSTL(bytes.NewReader(raw[:len(raw)-1])); err == nil {
				t.Fatal("truncated binary mesh accepted")
			}
		}
		back, err := ReadSTL(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("round-trip read failed: %v", err)
		}
		if len(back.Triangles) != len(m.Triangles) {
			t.Fatalf("round-trip triangle count %d != %d", len(back.Triangles), len(m.Triangles))
		}
		// The first write may quantize ASCII float64 vertices to the binary
		// format's float32; after that the vertex data is a fixed point, so
		// a second write must reproduce every record's vertex bytes exactly.
		// The header (the parser folds the writer's banner into the name)
		// and the normals (recomputed from pre- vs post-quantization
		// vertices) are legitimately unstable across the first cycle.
		var buf2 bytes.Buffer
		if err := WriteSTL(&buf2, back); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		raw2 := buf2.Bytes()
		for i := range m.Triangles {
			off := 84 + i*50 + 12 // skip the 12-byte normal
			if !bytes.Equal(raw2[off:off+36], raw[off:off+36]) {
				t.Fatalf("triangle %d vertices changed across write → read → write", i)
			}
		}
	})
}

// stlSeeds builds the corpus shared by FuzzSTLParse and the corpus dump:
// valid binary and ASCII meshes, truncations, malformed ASCII, and a
// binary header lying about its triangle count.
func stlSeeds() [][]byte {
	var bin bytes.Buffer
	_ = WriteSTL(&bin, NewBox(geom.V(0, 0, 0), geom.V(1, 2, 3)))
	var asc bytes.Buffer
	_ = WriteSTLASCII(&asc, NewSphere(geom.V(0, 0, 0), 1, 4, 3))
	lying := append([]byte(nil), bin.Bytes()...)
	lying[80] = 0xff // declare 255+ triangles with only a box's worth of data
	return [][]byte{
		bin.Bytes(),
		bin.Bytes()[:83],
		bin.Bytes()[:84+25],
		asc.Bytes(),
		lying,
		[]byte("solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0\nendloop\nendfacet\n"),
		[]byte("solid x\nfacet\nouter loop\nvertex 1 2 nope\nendloop\nendfacet\nendsolid x\n"),
		[]byte("solid\n"),
		{},
		[]byte("random garbage that is not STL at all"),
	}
}
