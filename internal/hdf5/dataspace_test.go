package hdf5

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func collectRuns(t *testing.T, s *Dataspace) (offsets, lens []uint64) {
	t.Helper()
	err := s.EachRun(func(off, n uint64) error {
		offsets = append(offsets, off)
		lens = append(lens, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestScalarSpace(t *testing.T) {
	s := NewScalar()
	if s.NDims() != 0 || s.Extent() != 1 || s.SelectionCount() != 1 {
		t.Fatalf("scalar: ndims=%d extent=%d count=%d", s.NDims(), s.Extent(), s.SelectionCount())
	}
	off, n := collectRuns(t, s)
	if len(off) != 1 || off[0] != 0 || n[0] != 1 {
		t.Fatalf("scalar runs: %v %v", off, n)
	}
}

func TestSimpleSpaceRejectsZeroDim(t *testing.T) {
	if _, err := NewSimple(4, 0, 2); !errors.Is(err, ErrSelection) {
		t.Fatalf("err = %v", err)
	}
}

func TestSelectAllSingleRun(t *testing.T) {
	s := MustSimple(3, 4, 5)
	if s.Extent() != 60 {
		t.Fatalf("Extent = %d", s.Extent())
	}
	off, n := collectRuns(t, s)
	if len(off) != 1 || off[0] != 0 || n[0] != 60 {
		t.Fatalf("all runs: %v %v", off, n)
	}
}

func TestHyperslab1DContiguous(t *testing.T) {
	s := MustSimple(100)
	if err := s.SelectHyperslab([]uint64{10}, nil, []uint64{1}, []uint64{20}); err != nil {
		t.Fatal(err)
	}
	if s.SelectionCount() != 20 {
		t.Fatalf("count = %d", s.SelectionCount())
	}
	off, n := collectRuns(t, s)
	if len(off) != 1 || off[0] != 10 || n[0] != 20 {
		t.Fatalf("runs: %v %v", off, n)
	}
}

func TestHyperslab1DStrided(t *testing.T) {
	s := MustSimple(100)
	// 5 blocks of 2 elements every 10: offsets 0,10,20,30,40.
	if err := s.SelectHyperslab([]uint64{0}, []uint64{10}, []uint64{5}, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if s.SelectionCount() != 10 {
		t.Fatalf("count = %d", s.SelectionCount())
	}
	off, n := collectRuns(t, s)
	if len(off) != 5 {
		t.Fatalf("runs: %v %v", off, n)
	}
	for i, o := range off {
		if o != uint64(i*10) || n[i] != 2 {
			t.Fatalf("run %d = (%d,%d), want (%d,2)", i, o, n[i], i*10)
		}
	}
}

func TestHyperslabPackedBlocksCoalesce(t *testing.T) {
	s := MustSimple(100)
	// stride == block → one coalesced run.
	if err := s.SelectHyperslab([]uint64{5}, []uint64{4}, []uint64{6}, []uint64{4}); err != nil {
		t.Fatal(err)
	}
	off, n := collectRuns(t, s)
	if len(off) != 1 || off[0] != 5 || n[0] != 24 {
		t.Fatalf("runs: %v %v", off, n)
	}
}

func TestHyperslab2DRowBlock(t *testing.T) {
	s := MustSimple(8, 10)
	// Rows 2..3, columns 4..6 — two runs of 3.
	if err := s.SelectHyperslab([]uint64{2, 4}, nil, []uint64{1, 1}, []uint64{2, 3}); err != nil {
		t.Fatal(err)
	}
	off, n := collectRuns(t, s)
	want := []uint64{2*10 + 4, 3*10 + 4}
	if len(off) != 2 || off[0] != want[0] || off[1] != want[1] || n[0] != 3 || n[1] != 3 {
		t.Fatalf("runs: %v %v, want offsets %v len 3", off, n, want)
	}
}

func TestHyperslab3DRunOrder(t *testing.T) {
	s := MustSimple(2, 3, 4)
	if err := s.SelectHyperslab([]uint64{0, 1, 0}, nil, []uint64{2, 2, 1}, []uint64{1, 1, 4}); err != nil {
		t.Fatal(err)
	}
	off, n := collectRuns(t, s)
	// planes 0 and 1, rows 1 and 2, all 4 columns.
	want := []uint64{4, 8, 16, 20}
	if len(off) != 4 {
		t.Fatalf("runs: %v %v", off, n)
	}
	for i := range want {
		if off[i] != want[i] || n[i] != 4 {
			t.Fatalf("run %d = (%d,%d), want (%d,4)", i, off[i], n[i], want[i])
		}
	}
}

func TestHyperslabValidation(t *testing.T) {
	s := MustSimple(10, 10)
	cases := []struct {
		name                        string
		start, stride, count, block []uint64
	}{
		{"rank mismatch", []uint64{0}, nil, []uint64{1}, nil},
		{"beyond extent", []uint64{5, 0}, nil, []uint64{1, 1}, []uint64{6, 1}},
		{"stride overlap", []uint64{0, 0}, []uint64{1, 1}, []uint64{2, 1}, []uint64{2, 1}},
		{"zero block", []uint64{0, 0}, nil, []uint64{1, 1}, []uint64{0, 1}},
		{"strided overflow", []uint64{0, 0}, []uint64{5, 5}, []uint64{3, 1}, []uint64{1, 1}},
	}
	for _, c := range cases {
		if err := s.SelectHyperslab(c.start, c.stride, c.count, c.block); !errors.Is(err, ErrSelection) {
			t.Errorf("%s: err = %v, want ErrSelection", c.name, err)
		}
	}
}

func TestEmptySelection(t *testing.T) {
	s := MustSimple(10)
	if err := s.SelectHyperslab([]uint64{0}, nil, []uint64{0}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if s.SelectionCount() != 0 {
		t.Fatalf("count = %d", s.SelectionCount())
	}
	off, _ := collectRuns(t, s)
	if len(off) != 0 {
		t.Fatalf("empty selection produced runs: %v", off)
	}
}

func TestSelectAllResets(t *testing.T) {
	s := MustSimple(10)
	if err := s.SelectHyperslab([]uint64{0}, nil, []uint64{1}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	s.SelectAll()
	if s.SelectionCount() != 10 {
		t.Fatalf("count after SelectAll = %d", s.SelectionCount())
	}
}

func TestCopyIsIndependent(t *testing.T) {
	s := MustSimple(10)
	if err := s.SelectHyperslab([]uint64{2}, nil, []uint64{1}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	c := s.Copy()
	s.SelectAll()
	if c.SelectionCount() != 3 {
		t.Fatalf("copy selection count = %d after original reset", c.SelectionCount())
	}
}

// TestRunsCoverSelectionExactlyProperty checks, for random regular
// hyperslabs on random shapes, that EachRun emits exactly the selected
// coordinates, in strictly increasing order, with total length equal to
// SelectionCount.
func TestRunsCoverSelectionExactlyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := rng.Intn(3) + 1
		dims := make([]uint64, nd)
		for i := range dims {
			dims[i] = uint64(rng.Intn(12) + 1)
		}
		s := MustSimple(dims...)
		start := make([]uint64, nd)
		stride := make([]uint64, nd)
		count := make([]uint64, nd)
		block := make([]uint64, nd)
		for d := 0; d < nd; d++ {
			start[d] = uint64(rng.Intn(int(dims[d])))
			maxBlock := dims[d] - start[d]
			block[d] = uint64(rng.Intn(int(maxBlock)) + 1)
			stride[d] = block[d] + uint64(rng.Intn(4))
			// max count so selection stays in bounds
			maxCount := (dims[d] - start[d] - block[d]) / stride[d]
			count[d] = uint64(rng.Intn(int(maxCount+1)) + 1)
		}
		if err := s.SelectHyperslab(start, stride, count, block); err != nil {
			return false
		}
		// Reference: enumerate selected linear offsets with nested loops.
		sel := map[uint64]bool{}
		var rec func(d int, base uint64)
		rowStride := make([]uint64, nd)
		rs := uint64(1)
		for d := nd - 1; d >= 0; d-- {
			rowStride[d] = rs
			rs *= dims[d]
		}
		rec = func(d int, base uint64) {
			if d == nd {
				sel[base] = true
				return
			}
			for c := uint64(0); c < count[d]; c++ {
				for b := uint64(0); b < block[d]; b++ {
					pos := start[d] + c*stride[d] + b
					rec(d+1, base+pos*rowStride[d])
				}
			}
		}
		rec(0, 0)

		var got []uint64
		var total uint64
		prevEnd := int64(-1)
		ok := true
		err := s.EachRun(func(off, n uint64) error {
			if int64(off) <= prevEnd {
				ok = false
			}
			prevEnd = int64(off + n - 1)
			total += n
			for i := uint64(0); i < n; i++ {
				got = append(got, off+i)
			}
			return nil
		})
		if err != nil || !ok {
			return false
		}
		if total != s.SelectionCount() || len(got) != len(sel) {
			return false
		}
		for _, o := range got {
			if !sel[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEachRunPropagatesError(t *testing.T) {
	s := MustSimple(10)
	if err := s.SelectHyperslab([]uint64{0}, []uint64{2}, []uint64{5}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	calls := 0
	err := s.EachRun(func(uint64, uint64) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || calls != 2 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestSelectPoints1D(t *testing.T) {
	s := MustSimple(20)
	if err := s.SelectPoints([][]uint64{{3}, {17}, {5}}); err != nil {
		t.Fatal(err)
	}
	if s.SelectionCount() != 3 {
		t.Fatalf("count = %d", s.SelectionCount())
	}
	off, n := collectRuns(t, s)
	want := []uint64{3, 17, 5} // visit order preserved
	for i := range want {
		if off[i] != want[i] || n[i] != 1 {
			t.Fatalf("runs = %v %v", off, n)
		}
	}
}

func TestSelectPoints2DRoundtripThroughDataset(t *testing.T) {
	f, _ := Create(NewMemStore())
	ds, err := f.Root().CreateDataset(nil, "p", U8, MustSimple(4, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	sel := MustSimple(4, 4)
	if err := sel.SelectPoints([][]uint64{{0, 0}, {1, 2}, {3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Write(nil, sel, []byte{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	full := make([]byte, 16)
	if err := ds.Read(nil, nil, full); err != nil {
		t.Fatal(err)
	}
	if full[0] != 10 || full[1*4+2] != 20 || full[3*4+3] != 30 {
		t.Fatalf("point writes misplaced: %v", full)
	}
	back := make([]byte, 3)
	if err := ds.Read(nil, sel, back); err != nil {
		t.Fatal(err)
	}
	if back[0] != 10 || back[1] != 20 || back[2] != 30 {
		t.Fatalf("point readback = %v", back)
	}
}

func TestSelectPointsValidation(t *testing.T) {
	s := MustSimple(4, 4)
	if err := s.SelectPoints([][]uint64{{1}}); !errors.Is(err, ErrSelection) {
		t.Errorf("rank mismatch: %v", err)
	}
	if err := s.SelectPoints([][]uint64{{4, 0}}); !errors.Is(err, ErrSelection) {
		t.Errorf("out of extent: %v", err)
	}
	if err := s.SelectPoints([][]uint64{{1, 1}, {1, 1}}); !errors.Is(err, ErrSelection) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestSelectPointsResetAndInterplay(t *testing.T) {
	s := MustSimple(10)
	if err := s.SelectPoints([][]uint64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	// Hyperslab selection replaces points.
	if err := s.SelectHyperslab([]uint64{0}, nil, []uint64{1}, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	if s.SelectionCount() != 5 {
		t.Fatalf("count after hyperslab = %d", s.SelectionCount())
	}
	if err := s.SelectPoints([][]uint64{{9}}); err != nil {
		t.Fatal(err)
	}
	if s.SelectionCount() != 1 {
		t.Fatalf("count after points = %d", s.SelectionCount())
	}
	s.SelectAll()
	if s.SelectionCount() != 10 {
		t.Fatalf("count after SelectAll = %d", s.SelectionCount())
	}
	// Copies carry point selections.
	if err := s.SelectPoints([][]uint64{{7}}); err != nil {
		t.Fatal(err)
	}
	c := s.Copy()
	s.SelectAll()
	if c.SelectionCount() != 1 {
		t.Fatalf("copy lost point selection")
	}
	if c.String() == s.String() {
		t.Fatal("String must distinguish selections")
	}
}

// selectionShapes covers every selection kind, ranks on both sides of the
// EachRun stack scratch, and values long enough to outgrow String's stack
// buffer.
func selectionShapes(t *testing.T) map[string]*Dataspace {
	t.Helper()
	slab1 := MustSimple(1 << 40)
	slab3 := MustSimple(6, 8, 10)
	slab5 := MustSimple(3, 4, 2, 5, 6)
	points := MustSimple(4, 4)
	empty := MustSimple(9)
	for _, err := range []error{
		slab1.SelectHyperslab([]uint64{1 << 39}, nil, []uint64{1}, []uint64{1 << 20}),
		slab3.SelectHyperslab([]uint64{1, 2, 3}, []uint64{2, 3, 4}, []uint64{2, 2, 2}, []uint64{1, 2, 1}),
		slab5.SelectHyperslab([]uint64{0, 1, 0, 1, 2}, nil, []uint64{2, 1, 2, 2, 1}, []uint64{1, 2, 1, 1, 3}),
		points.SelectPoints([][]uint64{{3, 1}, {0, 0}, {2, 2}}),
		empty.SelectPoints(nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*Dataspace{
		"scalar": NewScalar(), "all": MustSimple(7, 9), "1d": slab1, "3d": slab3,
		"5d": slab5, "points": points, "no-points": empty,
	}
}

// TestCopyEqualsAndSharesNoStorage: a copy selects what the original selects
// and shares no storage with it.
func TestCopyEqualsAndSharesNoStorage(t *testing.T) {
	for name, s := range selectionShapes(t) {
		c := s.Copy()
		wantOff, wantLen := collectRuns(t, s)
		gotOff, gotLen := collectRuns(t, c)
		if c.String() != s.String() || c.SelectionCount() != s.SelectionCount() ||
			!slices.Equal(gotOff, wantOff) || !slices.Equal(gotLen, wantLen) {
			t.Errorf("%s: copy %v differs from original %v", name, c, s)
		}
		want := s.String()
		for _, v := range [][]uint64{c.dims, c.points} {
			for i := range v {
				v[i] = 99
			}
		}
		if c.sel != nil {
			for _, v := range [][]uint64{c.sel.start, c.sel.stride, c.sel.count, c.sel.block} {
				for i := range v {
					v[i] = 99
				}
			}
		}
		if s.String() != want {
			t.Errorf("%s: scribbling on the copy changed the original to %v", name, s)
		}
	}
}

// TestStringMatchesFmt pins the fmt-free String to the rendering it
// replaced, so cache keys built from it compare exactly as before.
func TestStringMatchesFmt(t *testing.T) {
	for name, s := range selectionShapes(t) {
		var want string
		switch {
		case s.points != nil:
			want = fmt.Sprintf("%v{points:%v}", s.dims, s.points)
		case s.sel == nil:
			want = fmt.Sprintf("%v{all}", s.dims)
		default:
			want = fmt.Sprintf("%v{start:%v stride:%v count:%v block:%v}",
				s.dims, s.sel.start, s.sel.stride, s.sel.count, s.sel.block)
		}
		if got := s.String(); got != want {
			t.Errorf("%s: String = %q, want %q", name, got, want)
		}
	}
}

// TestAllocBudgetDataspace: the per-request selection operations on the
// I/O hot path — copy, cache key, run enumeration.
func TestAllocBudgetDataspace(t *testing.T) {
	shapes := selectionShapes(t)
	for _, name := range []string{"all", "1d", "3d", "points"} {
		s := shapes[name]
		if n := testing.AllocsPerRun(100, func() { _ = s.Copy() }); n > 2 {
			t.Errorf("%s: Copy allocates %.0f objects, budget 2", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = s.String() }); n > 1 {
			t.Errorf("%s: String allocates %.0f objects, budget 1", name, n)
		}
		var runs uint64
		count := func(_, n uint64) error { runs += n; return nil }
		if n := testing.AllocsPerRun(100, func() { _ = s.EachRun(count) }); n > 0 {
			t.Errorf("%s: EachRun allocates %.0f objects, budget 0", name, n)
		}
	}
	g := &Group{path: "/Step#3"}
	if n := testing.AllocsPerRun(100, func() { _ = joinPath(g.path, "particles/x") }); n > 1 {
		t.Errorf("joinPath allocates %.0f objects, budget 1", n)
	}
}
