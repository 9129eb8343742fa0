package hdf5

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestCreateWriteReadContiguous(t *testing.T) {
	f, err := Create(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Root().CreateDataset(nil, "x", F64, MustSimple(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i) * 1.5
	}
	if err := ds.Write(nil, nil, Float64sToBytes(in)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 800)
	if err := ds.Read(nil, nil, out); err != nil {
		t.Fatal(err)
	}
	got := BytesToFloat64s(out)
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("elem %d = %v, want %v", i, got[i], in[i])
		}
	}
}

func TestHyperslabWriteReadBack(t *testing.T) {
	f, _ := Create(NewMemStore())
	ds, err := f.Root().CreateDataset(nil, "d", I32, MustSimple(10, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Write a 3x4 tile at (2,3).
	sel := MustSimple(10, 10)
	if err := sel.SelectHyperslab([]uint64{2, 3}, nil, []uint64{1, 1}, []uint64{3, 4}); err != nil {
		t.Fatal(err)
	}
	tile := make([]int32, 12)
	for i := range tile {
		tile[i] = int32(i + 1)
	}
	if err := ds.Write(nil, sel, Int32sToBytes(tile)); err != nil {
		t.Fatal(err)
	}
	// Read everything and check placement.
	full := make([]byte, 400)
	if err := ds.Read(nil, nil, full); err != nil {
		t.Fatal(err)
	}
	grid := BytesToInt32s(full)
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			want := int32(0)
			if r >= 2 && r < 5 && c >= 3 && c < 7 {
				want = int32((r-2)*4 + (c - 3) + 1)
			}
			if grid[r*10+c] != want {
				t.Fatalf("(%d,%d) = %d, want %d", r, c, grid[r*10+c], want)
			}
		}
	}
	// Read back just the tile.
	back := make([]byte, 48)
	if err := ds.Read(nil, sel, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, Int32sToBytes(tile)) {
		t.Fatal("tile readback mismatch")
	}
}

func TestChunkedWriteReadBack(t *testing.T) {
	f, _ := Create(NewMemStore())
	props := &CreateProps{ChunkDims: []uint64{4, 4}}
	ds, err := f.Root().CreateDataset(nil, "c", I32, MustSimple(10, 10), props)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Chunked() {
		t.Fatal("dataset not chunked")
	}
	in := make([]int32, 100)
	for i := range in {
		in[i] = int32(i * 7)
	}
	if err := ds.Write(nil, nil, Int32sToBytes(in)); err != nil {
		t.Fatal(err)
	}
	// 10/4 → 3x3 grid of chunks, all touched by a full write.
	if n := ds.NumChunks(); n != 9 {
		t.Fatalf("NumChunks = %d, want 9", n)
	}
	out := make([]byte, 400)
	if err := ds.Read(nil, nil, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, Int32sToBytes(in)) {
		t.Fatal("chunked roundtrip mismatch")
	}
}

func TestChunkedSparseReadsZeros(t *testing.T) {
	f, _ := Create(NewMemStore())
	props := &CreateProps{ChunkDims: []uint64{8}}
	ds, err := f.Root().CreateDataset(nil, "s", I64, MustSimple(64), props)
	if err != nil {
		t.Fatal(err)
	}
	// Write only elements 16..23 (exactly chunk 2).
	sel := MustSimple(64)
	if err := sel.SelectHyperslab([]uint64{16}, nil, []uint64{1}, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := ds.Write(nil, sel, Int64sToBytes(vals)); err != nil {
		t.Fatal(err)
	}
	if n := ds.NumChunks(); n != 1 {
		t.Fatalf("NumChunks = %d, want 1", n)
	}
	full := make([]byte, 64*8)
	if err := ds.Read(nil, nil, full); err != nil {
		t.Fatal(err)
	}
	got := BytesToInt64s(full)
	for i, v := range got {
		want := int64(0)
		if i >= 16 && i < 24 {
			want = vals[i-16]
		}
		if v != want {
			t.Fatalf("elem %d = %d, want %d", i, v, want)
		}
	}
}

func TestChunkBoundaryCrossingRun(t *testing.T) {
	f, _ := Create(NewMemStore())
	props := &CreateProps{ChunkDims: []uint64{5}}
	ds, err := f.Root().CreateDataset(nil, "b", U8, MustSimple(17), props)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 17)
	for i := range in {
		in[i] = byte(i + 1)
	}
	if err := ds.Write(nil, nil, in); err != nil {
		t.Fatal(err)
	}
	// 17/5 → 4 chunks (last partial).
	if n := ds.NumChunks(); n != 4 {
		t.Fatalf("NumChunks = %d, want 4", n)
	}
	out := make([]byte, 17)
	if err := ds.Read(nil, nil, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("roundtrip: got %v want %v", out, in)
	}
}

func TestBufferSizeValidation(t *testing.T) {
	f, _ := Create(NewMemStore())
	ds, _ := f.Root().CreateDataset(nil, "v", F32, MustSimple(10), nil)
	if err := ds.Write(nil, nil, make([]byte, 39)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := ds.Read(nil, nil, make([]byte, 41)); err == nil {
		t.Fatal("long buffer accepted")
	}
	// Wrong-extent selection.
	if err := ds.Write(nil, MustSimple(11), make([]byte, 44)); err == nil {
		t.Fatal("mismatched selection extent accepted")
	}
	if err := ds.Write(nil, MustSimple(10, 1), make([]byte, 40)); err == nil {
		t.Fatal("mismatched selection rank accepted")
	}
}

func TestGroupHierarchyAndPaths(t *testing.T) {
	f, _ := Create(NewMemStore())
	a, err := f.Root().CreateGroup(nil, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.CreateGroup(nil, "b")
	if err != nil {
		t.Fatal(err)
	}
	// However a dataset handle was reached, Path is the absolute path.
	wantPath := func(d *Dataset, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Path(); got != "/a/b/d" {
			t.Fatalf("Path() = %q, want /a/b/d", got)
		}
	}
	wantPath(b.CreateDataset(nil, "d", I64, MustSimple(4), nil))
	wantPath(f.Root().OpenDataset(nil, "a/b/d"))
	wantPath(f.Root().OpenDataset(nil, "/a/b/d"))
	wantPath(a.OpenDataset(nil, "b//d"))
	wantPath(b.OpenDataset(nil, "d"))
	if _, err := f.Root().OpenGroup(nil, "a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Root().OpenDataset(nil, "a/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// Opening a group as dataset and vice versa.
	if _, err := f.Root().OpenDataset(nil, "a/b"); err == nil {
		t.Fatal("opened group as dataset")
	}
	if _, err := f.Root().OpenGroup(nil, "a/b/d"); err == nil {
		t.Fatal("opened dataset as group")
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	f, _ := Create(NewMemStore())
	if _, err := f.Root().CreateGroup(nil, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Root().CreateGroup(nil, "x"); !errors.Is(err, ErrExists) {
		t.Fatalf("group: err = %v", err)
	}
	if _, err := f.Root().CreateDataset(nil, "x", I8, MustSimple(1), nil); !errors.Is(err, ErrExists) {
		t.Fatalf("dataset: err = %v", err)
	}
}

func TestNameValidation(t *testing.T) {
	f, _ := Create(NewMemStore())
	if _, err := f.Root().CreateGroup(nil, ""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := f.Root().CreateGroup(nil, "a/b"); err == nil {
		t.Fatal("path name accepted")
	}
}

func TestListSorted(t *testing.T) {
	f, _ := Create(NewMemStore())
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := f.Root().CreateGroup(nil, n); err != nil {
			t.Fatal(err)
		}
	}
	got := f.Root().List()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestAttributes(t *testing.T) {
	f, _ := Create(NewMemStore())
	g, _ := f.Root().CreateGroup(nil, "g")
	if err := g.SetAttrInt64(nil, "steps", 2000); err != nil {
		t.Fatal(err)
	}
	if err := g.SetAttr(nil, "dt", F64, NewScalar(), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := g.SetAttrString(nil, "code", "vpic"); err != nil {
		t.Fatal(err)
	}
	if v, err := g.AttrInt64(nil, "steps"); err != nil || v != 2000 {
		t.Fatalf("steps = %d, %v", v, err)
	}
	if v, err := g.AttrString(nil, "code"); err != nil || v != "vpic" {
		t.Fatalf("code = %q, %v", v, err)
	}
	// Replacement.
	if err := g.SetAttrInt64(nil, "steps", 4000); err != nil {
		t.Fatal(err)
	}
	if v, _ := g.AttrInt64(nil, "steps"); v != 4000 {
		t.Fatalf("steps after replace = %d", v)
	}
	if _, err := g.AttrInt64(nil, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing attr err = %v", err)
	}
	// Type mismatch on typed getter.
	if _, err := g.AttrInt64(nil, "dt"); err == nil {
		t.Fatal("AttrInt64 on float attr succeeded")
	}
	// Wrong data size.
	if err := g.SetAttr(nil, "bad", I64, MustSimple(2), make([]byte, 8)); err == nil {
		t.Fatal("short attribute data accepted")
	}
}

func TestPersistenceRoundtripMemStore(t *testing.T) {
	store := NewMemStore()
	f, _ := Create(store)
	g, _ := f.Root().CreateGroup(nil, "sim")
	if err := g.SetAttrString(nil, "name", "run1"); err != nil {
		t.Fatal(err)
	}
	ds, _ := g.CreateDataset(nil, "energy", F64, MustSimple(8), nil)
	in := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := ds.Write(nil, nil, Float64sToBytes(in)); err != nil {
		t.Fatal(err)
	}
	cds, _ := g.CreateDataset(nil, "grid", I32, MustSimple(6, 6), &CreateProps{ChunkDims: []uint64{2, 3}})
	gin := make([]int32, 36)
	for i := range gin {
		gin[i] = int32(i)
	}
	if err := cds.Write(nil, nil, Int32sToBytes(gin)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := f2.Root().OpenGroup(nil, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := g2.AttrString(nil, "name"); err != nil || v != "run1" {
		t.Fatalf("attr after reopen = %q, %v", v, err)
	}
	ds2, err := g2.OpenDataset(nil, "energy")
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Dtype() != F64 {
		t.Fatalf("dtype = %v", ds2.Dtype())
	}
	out := make([]byte, 64)
	if err := ds2.Read(nil, nil, out); err != nil {
		t.Fatal(err)
	}
	got := BytesToFloat64s(out)
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("energy[%d] = %v", i, got[i])
		}
	}
	cds2, err := g2.OpenDataset(nil, "grid")
	if err != nil {
		t.Fatal(err)
	}
	if !cds2.Chunked() {
		t.Fatal("grid lost chunked layout")
	}
	gout := make([]byte, 144)
	if err := cds2.Read(nil, nil, gout); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gout, Int32sToBytes(gin)) {
		t.Fatal("grid roundtrip mismatch")
	}
}

func TestPersistenceRoundtripFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.ah5")
	store, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := Create(store)
	ds, _ := f.Root().CreateDataset(nil, "d", I64, MustSimple(16), nil)
	in := make([]int64, 16)
	for i := range in {
		in[i] = int64(i * i)
	}
	if err := ds.Write(nil, nil, Int64sToBytes(in)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	f2, err := Open(store2)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := f2.Root().OpenDataset(nil, "d")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 128)
	if err := ds2.Read(nil, nil, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, Int64sToBytes(in)) {
		t.Fatal("file-store roundtrip mismatch")
	}
}

func TestModifyAfterReopen(t *testing.T) {
	store := NewMemStore()
	f, _ := Create(store)
	if _, err := f.Root().CreateGroup(nil, "old"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Root().CreateGroup(nil, "new"); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(nil); err != nil {
		t.Fatal(err)
	}
	f3, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	names := f3.Root().List()
	if len(names) != 2 || names[0] != "new" || names[1] != "old" {
		t.Fatalf("List = %v", names)
	}
}

func TestClosedFileRejectsOps(t *testing.T) {
	f, _ := Create(NewMemStore())
	ds, _ := f.Root().CreateDataset(nil, "d", I8, MustSimple(4), nil)
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := f.Root().CreateGroup(nil, "g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateGroup err = %v", err)
	}
	if err := ds.Write(nil, nil, make([]byte, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write err = %v", err)
	}
	if err := f.Flush(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush err = %v", err)
	}
}

func TestOpenGarbageFails(t *testing.T) {
	store := NewMemStore()
	if _, err := store.WriteAt(make([]byte, 128), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(store); err == nil {
		t.Fatal("opened garbage store")
	}
}

func TestCorruptionDetected(t *testing.T) {
	store := NewMemStore()
	f, _ := Create(store)
	g, _ := f.Root().CreateGroup(nil, "g")
	if _, err := g.CreateDataset(nil, "d", I8, MustSimple(4), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the superblock checksum region.
	b := make([]byte, 1)
	if _, err := store.ReadAt(b, 10); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := store.WriteAt(b, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(store); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestNullStoreSemantics(t *testing.T) {
	ns := NewNullStore()
	if _, err := ns.WriteAt(make([]byte, 100), 50); err != nil {
		t.Fatal(err)
	}
	if ns.Size() != 150 {
		t.Fatalf("Size = %d", ns.Size())
	}
	buf := []byte{9, 9, 9}
	if _, err := ns.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range buf {
		if v != 0 {
			t.Fatal("NullStore read nonzero")
		}
	}
	// Library ops work on a NullStore (data is discarded).
	f, _ := Create(ns)
	ds, err := f.Root().CreateDataset(nil, "d", F32, MustSimple(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Write(nil, nil, make([]byte, 4000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// TestRandomTileWritesMatchReference property-tests the 2-D write path:
// random tiles written through hyperslab selections must equal a
// reference raster.
func TestRandomTileWritesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const H, W = 16, 16
		file, _ := Create(NewMemStore())
		var props *CreateProps
		if seed%2 == 0 {
			props = &CreateProps{ChunkDims: []uint64{uint64(rng.Intn(6) + 2), uint64(rng.Intn(6) + 2)}}
		}
		ds, err := file.Root().CreateDataset(nil, "t", U8, MustSimple(H, W), props)
		if err != nil {
			return false
		}
		ref := make([]byte, H*W)
		for k := 0; k < 12; k++ {
			r0 := rng.Intn(H)
			c0 := rng.Intn(W)
			h := rng.Intn(H-r0) + 1
			w := rng.Intn(W-c0) + 1
			sel := MustSimple(H, W)
			if err := sel.SelectHyperslab(
				[]uint64{uint64(r0), uint64(c0)}, nil,
				[]uint64{1, 1}, []uint64{uint64(h), uint64(w)}); err != nil {
				return false
			}
			tile := make([]byte, h*w)
			for i := range tile {
				tile[i] = byte(rng.Intn(256))
			}
			if err := ds.Write(nil, sel, tile); err != nil {
				return false
			}
			for i := 0; i < h; i++ {
				copy(ref[(r0+i)*W+c0:(r0+i)*W+c0+w], tile[i*w:(i+1)*w])
			}
		}
		out := make([]byte, H*W)
		if err := ds.Read(nil, nil, out); err != nil {
			return false
		}
		return bytes.Equal(out, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDatatypeStrings(t *testing.T) {
	cases := map[string]Datatype{
		"int64": I64, "uint8": U8, "float32": F32, "string[5]": FixedString(5),
	}
	for want, dt := range cases {
		if dt.String() != want {
			t.Errorf("String = %q, want %q", dt.String(), want)
		}
		if !dt.Valid() {
			t.Errorf("%v not valid", dt)
		}
	}
	if (Datatype{Class: ClassFloat, Size: 3}).Valid() {
		t.Error("float24 reported valid")
	}
	if (Datatype{}).Valid() {
		t.Error("zero datatype reported valid")
	}
}

func TestConversionHelpersRoundtrip(t *testing.T) {
	f64 := []float64{1e-300, 2, -9.75}
	if got := BytesToFloat64s(Float64sToBytes(f64)); got[0] != 1e-300 || got[2] != -9.75 {
		t.Fatalf("float64 roundtrip = %v", got)
	}
	i64 := []int64{-1, 0, 1 << 60}
	if got := BytesToInt64s(Int64sToBytes(i64)); got[0] != -1 || got[2] != 1<<60 {
		t.Fatalf("int64 roundtrip = %v", got)
	}
	i32 := []int32{-7, 42}
	if got := BytesToInt32s(Int32sToBytes(i32)); got[0] != -7 || got[1] != 42 {
		t.Fatalf("int32 roundtrip = %v", got)
	}
}

func TestExtendChunkedDataset(t *testing.T) {
	store := NewMemStore()
	f, _ := Create(store)
	ds, err := f.Root().CreateDataset(nil, "ts", I32, MustSimple(8), &CreateProps{ChunkDims: []uint64{4}})
	if err != nil {
		t.Fatal(err)
	}
	first := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	if err := ds.Write(nil, nil, Int32sToBytes(first)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Extend(nil, []uint64{16}); err != nil {
		t.Fatal(err)
	}
	if got := ds.Dims()[0]; got != 16 {
		t.Fatalf("dims after Extend = %d", got)
	}
	// Append into the new region.
	sel := MustSimple(16)
	if err := sel.SelectHyperslab([]uint64{8}, nil, []uint64{1}, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	second := []int32{9, 10, 11, 12, 13, 14, 15, 16}
	if err := ds.Write(nil, sel, Int32sToBytes(second)); err != nil {
		t.Fatal(err)
	}
	// Existing data must survive, new data must land.
	out := make([]byte, 16*4)
	if err := ds.Read(nil, nil, out); err != nil {
		t.Fatal(err)
	}
	got := BytesToInt32s(out)
	for i := 0; i < 16; i++ {
		if got[i] != int32(i+1) {
			t.Fatalf("elem %d = %d, want %d", i, got[i], i+1)
		}
	}
	// Extension survives flush + reopen.
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := f2.Root().OpenDataset(nil, "ts")
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Dims()[0] != 16 {
		t.Fatalf("dims after reopen = %v", ds2.Dims())
	}
	out2 := make([]byte, 16*4)
	if err := ds2.Read(nil, nil, out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, out2) {
		t.Fatal("data lost across reopen after Extend")
	}
}

func TestExtendValidation(t *testing.T) {
	f, _ := Create(NewMemStore())
	contig, _ := f.Root().CreateDataset(nil, "c", I8, MustSimple(4), nil)
	if err := contig.Extend(nil, []uint64{8}); err == nil {
		t.Error("Extend on contiguous dataset accepted")
	}
	ds, _ := f.Root().CreateDataset(nil, "d", I8, MustSimple(4, 4), &CreateProps{ChunkDims: []uint64{2, 2}})
	if err := ds.Extend(nil, []uint64{8}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if err := ds.Extend(nil, []uint64{2, 8}); err == nil {
		t.Error("shrinking Extend accepted")
	}
	if err := ds.Extend(nil, []uint64{8, 8}); err != nil {
		t.Errorf("valid Extend rejected: %v", err)
	}
}

func TestExtend2DPreservesPlacement(t *testing.T) {
	f, _ := Create(NewMemStore())
	ds, err := f.Root().CreateDataset(nil, "g", U8, MustSimple(4, 4), &CreateProps{ChunkDims: []uint64{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 16)
	for i := range in {
		in[i] = byte(i + 1)
	}
	if err := ds.Write(nil, nil, in); err != nil {
		t.Fatal(err)
	}
	if err := ds.Extend(nil, []uint64{4, 8}); err != nil {
		t.Fatal(err)
	}
	// The original 4x4 block must read back from the grown 4x8 extent.
	sel := MustSimple(4, 8)
	if err := sel.SelectHyperslab([]uint64{0, 0}, nil, []uint64{1, 1}, []uint64{4, 4}); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 16)
	if err := ds.Read(nil, sel, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("placement lost after 2-D extend: %v vs %v", out, in)
	}
}

func TestChunkedRankLimit(t *testing.T) {
	f, _ := Create(NewMemStore())
	dims := []uint64{2, 2, 2, 2, 2, 2, 2, 2, 2} // rank 9 > maxRank
	chunks := make([]uint64, len(dims))
	for i := range chunks {
		chunks[i] = 1
	}
	space, err := NewSimple(dims...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Root().CreateDataset(nil, "x", U8, space, &CreateProps{ChunkDims: chunks}); err == nil {
		t.Fatal("rank-9 chunked dataset accepted")
	}
}
