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

// ParseSTL is ReadSTL for a caller that already holds the whole file
// (an upload body): nothing is copied. A vertex that is NaN, infinite or
// beyond the binary format's float32 range is an error.
func ParseSTL(data []byte) (*Mesh, error) {
	if isASCIISTL(data) {
		return parseASCIISTL(data)
	}
	return parseBinarySTL(data)
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

func parseBinarySTL(data []byte) (*Mesh, error) {
	if len(data) < 84 {
		return nil, fmt.Errorf("stl: binary file too short (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[80:84])
	const rec = 50
	if len(data) < 84+int(n)*rec {
		return nil, fmt.Errorf("stl: truncated binary file: %d triangles declared, %d bytes available",
			n, len(data)-84)
	}
	// The declared count is covered by the bytes present (checked above),
	// so a forged header cannot size this allocation.
	m := &Mesh{Name: strings.TrimRight(string(data[:80]), "\x00 "), Triangles: make([]Triangle, n)}
	off := 84
	readVec := func(b []byte) geom.Vec3 {
		return geom.V(
			float64(math.Float32frombits(binary.LittleEndian.Uint32(b[0:4]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4:8]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(b[8:12]))),
		)
	}
	for i := range m.Triangles {
		b := data[off : off+rec]
		t := Triangle{A: readVec(b[12:24]), B: readVec(b[24:36]), C: readVec(b[36:48])}
		if !finite(t.A) || !finite(t.B) || !finite(t.C) {
			return nil, fmt.Errorf("stl: triangle %d: %w", i, errNonFinite)
		}
		m.Triangles[i] = t
		off += rec
	}
	return m, nil
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
