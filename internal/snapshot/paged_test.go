package snapshot

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/storage"
	"github.com/voxset/voxset/internal/vectorset"
)

// pagedFixture is a deterministic database for paged-format tests.
type pagedFixture struct {
	dim, maxCard int
	omega        []float64
	ids          []uint64
	sets         []vectorset.Flat
}

func makeFixture(t *testing.T, n int) *pagedFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + 42))
	fx := &pagedFixture{dim: 7, maxCard: 12}
	fx.omega = make([]float64, fx.dim)
	for i := range fx.omega {
		fx.omega[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		card := 1 + rng.Intn(fx.maxCard)
		data := make([]float64, card*fx.dim)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		fx.ids = append(fx.ids, uint64(1000+i*3))
		fx.sets = append(fx.sets, vectorset.Flat{Data: data, Card: card, Dim: fx.dim})
	}
	return fx
}

// order is the block order the writer stores the fixture in: position s
// holds fixture object order()[s].
func (fx *pagedFixture) order() []int {
	var col []float64
	for _, set := range fx.sets {
		col = append(col, set.Centroid(fx.maxCard, fx.omega)...)
	}
	return vectorset.BlockOrder(fx.ids, col, fx.dim)
}

func (fx *pagedFixture) write(t *testing.T, path string, seq uint64) {
	t.Helper()
	w, err := CreatePaged(path, PagedWriterOptions{
		Dim: fx.dim, MaxCard: fx.maxCard, Omega: fx.omega, Seq: seq,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range fx.ids {
		if err := w.Append(id, fx.sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestPagedRoundTrip(t *testing.T) {
	fx := makeFixture(t, 137)
	path := filepath.Join(t.TempDir(), "db.vsnap")
	fx.write(t, path, 99)

	if v, err := SniffFile(path); err != nil || v != 2 {
		t.Fatalf("SniffFile = (%d, %v), want (2, nil)", v, err)
	}
	r, err := OpenPaged(path, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(fx.ids) || r.Dim() != fx.dim || r.MaxCard() != fx.maxCard || r.Seq() != 99 {
		t.Fatalf("header mismatch: len=%d dim=%d maxCard=%d seq=%d", r.Len(), r.Dim(), r.MaxCard(), r.Seq())
	}
	for i, w := range fx.omega {
		if r.Omega()[i] != w {
			t.Fatalf("ω[%d] = %v, want %v", i, r.Omega()[i], w)
		}
	}
	cents, col := r.Centroids(), r.CentroidColumn()
	if len(col) != len(fx.ids)*fx.dim {
		t.Fatalf("CentroidColumn holds %d values, want %d × %d", len(col), len(fx.ids), fx.dim)
	}
	for i, k := range fx.order() {
		if r.ID(i) != fx.ids[k] {
			t.Fatalf("ID(%d) = %d, want %d", i, r.ID(i), fx.ids[k])
		}
		got := r.At(i)
		want := fx.sets[k]
		if got.Card != want.Card || got.Dim != want.Dim {
			t.Fatalf("At(%d) shape (%d,%d), want (%d,%d)", i, got.Card, got.Dim, want.Card, want.Dim)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("At(%d) data[%d] = %v, want %v", i, j, got.Data[j], want.Data[j])
			}
		}
		wc := want.Centroid(fx.maxCard, fx.omega)
		for j := range wc {
			if cents[i][j] != wc[j] || r.Centroid(i)[j] != wc[j] || col[i*fx.dim+j] != wc[j] {
				t.Fatalf("centroid %d component %d mismatch", i, j)
			}
		}
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestPagedWriterLeavesNothingBehind: the writer's scratch file and the
// target's temporary are gone after Abort, after a failed Append and after
// a failed Finish, none of which leaves a target either; a Finish that
// succeeds leaves exactly the target. Appending the same objects in
// another order writes the same bytes.
func TestPagedWriterLeavesNothingBehind(t *testing.T) {
	fx := makeFixture(t, 150)
	create := func(t *testing.T, path string) *PagedWriter {
		t.Helper()
		w, err := CreatePaged(path, PagedWriterOptions{Dim: fx.dim, MaxCard: fx.maxCard, Omega: fx.omega, Seq: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 100 {
			if err := w.Append(fx.ids[i], fx.sets[i]); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}

	t.Run("abort", func(t *testing.T) {
		dir := t.TempDir()
		create(t, filepath.Join(dir, "db.vsnap")).Abort()
		if names := dirNames(t, dir); len(names) != 0 {
			t.Fatalf("Abort left %v", names)
		}
	})
	t.Run("failed append", func(t *testing.T) {
		dir := t.TempDir()
		w := create(t, filepath.Join(dir, "db.vsnap"))
		bad := vectorset.Flat{Data: make([]float64, fx.dim+1), Card: 1, Dim: fx.dim + 1}
		if err := w.Append(99, bad); err == nil {
			t.Fatal("an object of the wrong dimension was appended")
		}
		if names := dirNames(t, dir); len(names) != 0 {
			t.Fatalf("a failed Append left %v", names)
		}
		if err := w.Finish(); err == nil {
			t.Fatal("Finish after a failed Append succeeded")
		}
	})
	t.Run("failed finish", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "db.vsnap")
		w := create(t, path)
		// A directory where the target's temporary goes fails Finish.
		if err := os.Mkdir(path+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err == nil {
			t.Fatal("Finish succeeded with its temporary blocked")
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "db.vsnap.tmp" {
			t.Fatalf("a failed Finish left %v beside the blocking directory", names)
		}
		w.Abort() // a no-op by now
	})
	t.Run("finish", func(t *testing.T) {
		dir := t.TempDir()
		inOrder := filepath.Join(dir, "in-order.vsnap")
		fx.write(t, inOrder, 7)
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "in-order.vsnap" {
			t.Fatalf("Finish left %v", names)
		}
		shuffled := filepath.Join(dir, "shuffled.vsnap")
		w, err := CreatePaged(shuffled, PagedWriterOptions{Dim: fx.dim, MaxCard: fx.maxCard, Omega: fx.omega, Seq: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rand.New(rand.NewSource(5)).Perm(len(fx.ids)) {
			if err := w.Append(fx.ids[i], fx.sets[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(inOrder)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("the same objects appended in another order write other bytes")
		}
	})
}

func TestPagedEmpty(t *testing.T) {
	fx := makeFixture(t, 0)
	path := filepath.Join(t.TempDir(), "empty.vsnap")
	fx.write(t, path, 0)
	r, err := OpenPaged(path, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 0 || len(r.Centroids()) != 0 {
		t.Fatalf("empty snapshot has %d objects", r.Len())
	}
}

// TestOpenMmapAllocs pins the O(1)-allocation open contract: opening a
// paged snapshot must cost the same number of heap allocations whether
// it holds a hundred objects or thousands, and reading a set through At
// must not allocate at all.
func TestOpenMmapAllocs(t *testing.T) {
	dir := t.TempDir()
	openAllocs := func(n int) float64 {
		path := filepath.Join(dir, "db.vsnap")
		makeFixture(t, n).write(t, path, 0)
		var r *PagedReader
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			r, err = OpenPaged(path, PagedReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
		})
		r, err := OpenPaged(path, PagedReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !r.Mapped() {
			t.Skip("no mmap on this platform; the aliasing contract does not apply")
		}
		if at := testing.AllocsPerRun(100, func() { _ = r.At(n / 2) }); at != 0 {
			t.Fatalf("At allocates %.0f times per call, want 0", at)
		}
		return allocs
	}
	small := openAllocs(100)
	large := openAllocs(5000)
	if large > small {
		t.Fatalf("open allocations grow with object count: %0.f at 100 objects, %0.f at 5000", small, large)
	}
}

func TestPagedLazyCRCCatchesCorruption(t *testing.T) {
	fx := makeFixture(t, 64)
	path := filepath.Join(t.TempDir(), "db.vsnap")
	fx.write(t, path, 0)

	// Flip a byte deep in the vector region: the open-time checks (header,
	// offsets) pass, and the damage surfaces on first touch of its page.
	r0, err := OpenPaged(path, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps := r0.PageSize()
	r0.Close()
	corruptAt := int64(ps) + int64(ps)/2
	flipByte(t, path, corruptAt)

	r, err := OpenPaged(path, PagedReaderOptions{})
	if err != nil {
		t.Fatalf("open should defer vector-page verification, got %v", err)
	}
	defer r.Close()
	if err := r.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify = %v, want ErrCorrupt", err)
	}
	func() {
		defer func() {
			rec := recover()
			err, ok := rec.(error)
			if !ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("At on a corrupt page recovered %v, want ErrCorrupt panic", rec)
			}
		}()
		for i := 0; i < r.Len(); i++ {
			r.At(i)
		}
		t.Fatal("no panic touching a corrupt page")
	}()
}

func TestPagedOpenRejectsHeaderAndOffsetDamage(t *testing.T) {
	fx := makeFixture(t, 32)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.vsnap")
	fx.write(t, path, 7)
	r, err := OpenPaged(path, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps := r.PageSize()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the offsets region: it follows the vector region; find it by
	// re-deriving from the reader before closing.
	vecPages := (int(r.starts[r.count])*8 + ps - 1) / ps
	offStart := int64(1+vecPages) * int64(ps)
	r.Close()

	cases := map[string]int64{
		"header":  20,
		"offsets": offStart + 4,
	}
	for name, off := range cases {
		p := filepath.Join(dir, name+".vsnap")
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		flipByte(t, p, off)
		if _, err := OpenPaged(p, PagedReaderOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s damage: open = %v, want ErrCorrupt", name, err)
		}
	}

	// Truncation is caught by the size check.
	p := filepath.Join(dir, "trunc.vsnap")
	if err := os.WriteFile(p, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPaged(p, PagedReaderOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: open = %v, want ErrCorrupt", err)
	}
}

func TestPagedTrackerChargesFirstTouchOnly(t *testing.T) {
	fx := makeFixture(t, 128)
	path := filepath.Join(t.TempDir(), "db.vsnap")
	fx.write(t, path, 0)
	tr := &storage.Tracker{}
	r, err := OpenPaged(path, PagedReaderOptions{Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	opened := tr.PageAccesses() // header + offsets pages, charged eagerly
	if opened < 2 {
		t.Fatalf("open charged %d pages, want ≥ 2", opened)
	}
	r.At(0)
	afterFirst := tr.PageAccesses()
	if afterFirst <= opened {
		t.Fatal("first At charged no pages")
	}
	for i := 0; i < 10; i++ {
		r.At(0)
	}
	if tr.PageAccesses() != afterFirst {
		t.Fatalf("repeat At re-charged: %d pages, want %d", tr.PageAccesses(), afterFirst)
	}
	// Touching everything charges at most the file's data pages once.
	for i := 0; i < r.Len(); i++ {
		r.At(i)
	}
	r.Centroids()
	total := tr.PageAccesses()
	for i := 0; i < r.Len(); i++ {
		r.At(i)
	}
	if tr.PageAccesses() != total {
		t.Fatal("full re-scan re-charged pages")
	}
}

func TestConvertFileV1ToV2(t *testing.T) {
	fx := makeFixture(t, 91)
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.vsnap")
	v2 := filepath.Join(dir, "v2.vsnap")

	db := &v1DB{Dim: fx.dim, MaxCard: fx.maxCard, Omega: fx.omega, Seq: 31, IDs: fx.ids}
	cents := make([][]float64, len(fx.sets))
	for i, s := range fx.sets {
		db.Sets = append(db.Sets, s.Rows())
		cents[i] = s.Centroid(fx.maxCard, fx.omega)
	}
	db.Centroids = cents
	if err := os.WriteFile(v1, encode(t, db), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := ConvertFile(v1, v2, 0); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPaged(v2, PagedReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(fx.ids) || r.Seq() != 31 {
		t.Fatalf("converted snapshot: len=%d seq=%d", r.Len(), r.Seq())
	}
	for i, k := range fx.order() {
		if r.ID(i) != fx.ids[k] {
			t.Fatalf("ID(%d) = %d, want %d", i, r.ID(i), fx.ids[k])
		}
		got, want := r.At(i), fx.sets[k]
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("object %d float %d mismatch", i, j)
			}
		}
		for j, c := range cents[k] {
			if math.Abs(r.Centroid(i)[j]-c) != 0 {
				t.Fatalf("object %d centroid %d: recomputed %v, persisted %v", i, j, r.Centroid(i)[j], c)
			}
		}
	}
}

func TestSniffFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SniffFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SniffFile = %v, want ErrCorrupt", err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
