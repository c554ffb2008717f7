package mesh

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/voxset/voxset/internal/geom"
)

// WriteSTL writes the mesh in binary STL format.
func WriteSTL(w io.Writer, m *Mesh) error {
	bw := bufio.NewWriter(w)
	var header [80]byte
	copy(header[:], "voxset binary STL: "+m.Name)
	if _, err := bw.Write(header[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(m.Triangles))); err != nil {
		return err
	}
	writeVec := func(v geom.Vec3) error {
		for _, f := range []float64{v.X, v.Y, v.Z} {
			if err := binary.Write(bw, binary.LittleEndian, float32(f)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range m.Triangles {
		n := t.Normal().Normalize()
		for _, v := range []geom.Vec3{n, t.A, t.B, t.C} {
			if err := writeVec(v); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(0)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSTLASCII writes the mesh in ASCII STL format.
func WriteSTLASCII(w io.Writer, m *Mesh) error {
	bw := bufio.NewWriter(w)
	name := m.Name
	if name == "" {
		name = "mesh"
	}
	fmt.Fprintf(bw, "solid %s\n", name)
	for _, t := range m.Triangles {
		n := t.Normal().Normalize()
		fmt.Fprintf(bw, "  facet normal %g %g %g\n", n.X, n.Y, n.Z)
		fmt.Fprintf(bw, "    outer loop\n")
		for _, v := range []geom.Vec3{t.A, t.B, t.C} {
			fmt.Fprintf(bw, "      vertex %g %g %g\n", v.X, v.Y, v.Z)
		}
		fmt.Fprintf(bw, "    endloop\n  endfacet\n")
	}
	fmt.Fprintf(bw, "endsolid %s\n", name)
	return bw.Flush()
}

// ReadSTL reads a mesh in either binary or ASCII STL format, detecting the
// variant from the content.
func ReadSTL(r io.Reader) (*Mesh, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseSTL(data)
}

// ParseSTL is ReadSTL for a caller that already holds the whole file: a
// binary body is validated by ViewSTL and its triangles copied out, an
// ASCII one parsed. A vertex that is NaN, infinite or beyond the binary
// format's float32 range is an error.
func ParseSTL(data []byte) (*Mesh, error) {
	if isASCIISTL(data) {
		return parseASCIISTL(data)
	}
	v, err := viewBinarySTL(data)
	if err != nil {
		return nil, err
	}
	// The view holds only records present in data, so a forged header
	// cannot size this allocation.
	m := &Mesh{Name: strings.TrimRight(string(data[:80]), "\x00 "), Triangles: make([]Triangle, v.Len())}
	for i := range m.Triangles {
		m.Triangles[i] = v.Triangle(i)
	}
	return m, nil
}

// ViewSTL reads an STL file held in data (an upload body) with ParseSTL's
// checks and errors, and returns its triangles. A binary body is read in
// place: nothing is copied, and each triangle's float32 vertices are
// decoded on access — exactly, so it equals ParseSTL's. The view aliases
// data and is valid while data is. An ASCII body is parsed to a *Mesh.
func ViewSTL(data []byte) (Triangles, error) {
	if isASCIISTL(data) {
		m, err := parseASCIISTL(data)
		if err != nil {
			return nil, err // not a typed-nil *Mesh
		}
		return m, nil
	}
	v, err := viewBinarySTL(data)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// finite reports whether every coordinate of v is a finite float32, the
// range WriteSTL can write back.
func finite(v geom.Vec3) bool {
	return math.Abs(v.X) <= math.MaxFloat32 && math.Abs(v.Y) <= math.MaxFloat32 && math.Abs(v.Z) <= math.MaxFloat32
}

var errNonFinite = errors.New("non-finite vertex")

func isASCIISTL(data []byte) bool {
	head := strings.TrimSpace(string(data[:min(len(data), 512)]))
	if !strings.HasPrefix(head, "solid") {
		return false
	}
	// Binary files may also start with "solid" in the header; a real ASCII
	// file must contain the word "facet" early on.
	return strings.Contains(head, "facet") || len(data) < 84
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// stlRecord is the size of one binary STL triangle record: a normal and
// three vertices of three little-endian float32s each, and a 2-byte
// attribute count.
const stlRecord = 50

// stlView is a validated binary STL body's records, read in place.
type stlView struct {
	recs   []byte
	bounds geom.AABB // of every vertex, found by viewBinarySTL's check
}

func (v *stlView) Len() int { return len(v.recs) / stlRecord }

func (v *stlView) Triangle(i int) Triangle {
	b := v.record(i)
	return Triangle{A: vec32(b, 12), B: vec32(b, 24), C: vec32(b, 36)}
}

// record returns the i-th record; a fixed-size array needs no bounds
// checks at the constant offsets read from it.
func (v *stlView) record(i int) *[stlRecord]byte {
	return (*[stlRecord]byte)(v.recs[i*stlRecord:])
}

// vec32 decodes the three little-endian float32s at b[off:off+12];
// float32 → float64 is exact.
func vec32(b *[stlRecord]byte, off int) geom.Vec3 {
	return geom.V(
		float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))),
		float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off+4:]))),
		float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off+8:]))),
	)
}

// viewBinarySTL checks a binary STL body — the declared triangle count
// covered by the bytes present, every vertex a finite float32 — and views
// its records, finding their bounds in the same pass. Bytes past the
// declared records are ignored.
func viewBinarySTL(data []byte) (*stlView, error) {
	if len(data) < 84 {
		return nil, fmt.Errorf("stl: binary file too short (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[80:84]))
	if len(data) < 84+n*stlRecord {
		return nil, fmt.Errorf("stl: truncated binary file: %d triangles declared, %d bytes available",
			n, len(data)-84)
	}
	v := &stlView{recs: data[84 : 84+n*stlRecord], bounds: geom.EmptyAABB()}
	lo, hi := &v.bounds.Min, &v.bounds.Max
	for i := 0; i < n; i++ {
		b := v.record(i)
		for off := 12; off < 48; off += 12 {
			ux := binary.LittleEndian.Uint32(b[off:])
			uy := binary.LittleEndian.Uint32(b[off+4:])
			uz := binary.LittleEndian.Uint32(b[off+8:])
			// A float32 is NaN or ±Inf exactly when its exponent is all ones.
			const exp = 0x7f800000
			if ux&exp == exp || uy&exp == exp || uz&exp == exp {
				return nil, fmt.Errorf("stl: triangle %d: %w", i, errNonFinite)
			}
			extend(&lo.X, &hi.X, float64(math.Float32frombits(ux)))
			extend(&lo.Y, &hi.Y, float64(math.Float32frombits(uy)))
			extend(&lo.Z, &hi.Z, float64(math.Float32frombits(uz)))
		}
	}
	return v, nil
}

func parseASCIISTL(data []byte) (*Mesh, error) {
	m := &Mesh{}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var verts []geom.Vec3
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "solid":
			if len(fields) > 1 && m.Name == "" {
				m.Name = fields[1]
			}
		case "vertex":
			if len(fields) != 4 {
				return nil, fmt.Errorf("stl: line %d: malformed vertex", line)
			}
			var c [3]float64
			for i := 0; i < 3; i++ {
				v, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("stl: line %d: %v", line, err)
				}
				c[i] = v
			}
			v := geom.V(c[0], c[1], c[2])
			if !finite(v) {
				return nil, fmt.Errorf("stl: line %d: %w", line, errNonFinite)
			}
			verts = append(verts, v)
		case "endfacet":
			if len(verts) != 3 {
				return nil, fmt.Errorf("stl: line %d: facet has %d vertices, want 3", line, len(verts))
			}
			m.Triangles = append(m.Triangles, Triangle{verts[0], verts[1], verts[2]})
			verts = verts[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
