package amrex

import (
	"testing"

	"asyncio/internal/hdf5"
	"asyncio/internal/vol"
)

func TestBoxBasics(t *testing.T) {
	b := Box{Lo: [3]int{1, 2, 3}, Hi: [3]int{4, 6, 8}}
	if b.NumCells() != 3*4*5 {
		t.Fatalf("NumCells = %d", b.NumCells())
	}
	if (Box{Lo: [3]int{2, 0, 0}, Hi: [3]int{1, 5, 5}}).NumCells() != 0 {
		t.Fatal("inverted box must have zero cells")
	}
	if DomainBox(8).NumCells() != 512 {
		t.Fatal("DomainBox wrong")
	}
}

func TestChopDomainCoversExactly(t *testing.T) {
	dom := DomainBox(100)
	ba := ChopDomain(dom, 32)
	// 100/32 → 4 per side → 64 boxes.
	if len(ba.Boxes) != 64 {
		t.Fatalf("boxes = %d", len(ba.Boxes))
	}
	var cells int64
	for _, b := range ba.Boxes {
		cells += b.NumCells()
	}
	if cells != dom.NumCells() {
		t.Fatalf("cells = %d, want %d", cells, dom.NumCells())
	}
	// Partial edge boxes are 4 cells wide in each dimension's last slot.
	var partial int
	for _, b := range ba.Boxes {
		for d := 0; d < 3; d++ {
			if b.Hi[d]-b.Lo[d] == 4 {
				partial++
				break
			}
		}
	}
	if partial == 0 {
		t.Fatal("no partial boxes on a 100/32 chop")
	}
}

func TestChopDomainExactFit(t *testing.T) {
	ba := ChopDomain(DomainBox(64), 32)
	if len(ba.Boxes) != 8 {
		t.Fatalf("boxes = %d", len(ba.Boxes))
	}
	for _, b := range ba.Boxes {
		if b.NumCells() != 32*32*32 {
			t.Fatalf("box %v not full size", b)
		}
	}
}

func TestMultiFabDistribution(t *testing.T) {
	ba := ChopDomain(DomainBox(64), 16) // 64 boxes
	mf := NewMultiFab(ba, 6, 12)
	if mf.total != 64*64*64*6 {
		t.Fatalf("total elements = %d", mf.total)
	}
	// Every box owned exactly once; counts balanced within 1.
	counts := map[int]int{}
	total := 0
	for r := 0; r < 12; r++ {
		n := len(mf.LocalBoxes(r))
		counts[r] = n
		total += n
	}
	if total != 64 {
		t.Fatalf("owned boxes = %d, want 64", total)
	}
	for r, n := range counts {
		if n < 64/12 || n > 64/12+1 {
			t.Fatalf("rank %d owns %d boxes, unbalanced", r, n)
		}
	}
	// Local ranges sum to the whole fab.
	var sum uint64
	for r := 0; r < 12; r++ {
		_, n := mf.LocalRange(r)
		sum += n
	}
	if sum != mf.total {
		t.Fatalf("local elements sum %d vs total %d", sum, mf.total)
	}
}

func TestBoxSelectionsAreDisjointAndComplete(t *testing.T) {
	ba := ChopDomain(DomainBox(20), 8)
	mf := NewMultiFab(ba, 2, 3)
	covered := make([]bool, mf.total)
	for bi := range ba.Boxes {
		sel, err := mf.BoxSelection(bi)
		if err != nil {
			t.Fatal(err)
		}
		if err := sel.EachRun(func(off, n uint64) error {
			for i := off; i < off+n; i++ {
				if covered[i] {
					t.Fatalf("element %d covered twice", i)
				}
				covered[i] = true
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("element %d never covered", i)
		}
	}
}

func TestWritePlotfileMaterialized(t *testing.T) {
	raw, err := hdf5.Create(hdf5.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	f := vol.Native{}.Wrap(raw)
	ba := ChopDomain(DomainBox(8), 4) // 8 boxes
	mf := NewMultiFab(ba, 2, 2)
	pr := vol.Props{}
	var total int64
	for rank := 0; rank < 2; rank++ {
		n, err := WritePlotfile(pr, f, 7, rank, mf, true, func() {})
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != int64(mf.total)*8 {
		t.Fatalf("wrote %d bytes, want %d", total, int64(mf.total)*8)
	}
	// Verify pattern placement per box.
	ds, err := f.Root().OpenDataset(pr, PlotfileName(7)+"/level_0/data:datatype=0")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, int64(mf.total)*8)
	if err := ds.Read(pr, nil, buf); err != nil {
		t.Fatal(err)
	}
	for bi := range ba.Boxes {
		sel, _ := mf.BoxSelection(bi)
		want := ExpectedBoxByte(7, bi)
		if err := sel.EachRun(func(off, n uint64) error {
			for i := off * 8; i < (off+n)*8; i++ {
				if buf[i] != want {
					t.Fatalf("box %d byte %d = %d, want %d", bi, i, buf[i], want)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Metadata attributes present.
	g, err := raw.Root().OpenGroup(nil, PlotfileName(7))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := g.AttrInt64(nil, "nboxes"); err != nil || v != 8 {
		t.Fatalf("nboxes = %d, %v", v, err)
	}
}

func TestValidationPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"chop":     func() { ChopDomain(DomainBox(8), 0) },
		"multifab": func() { NewMultiFab(BoxArray{}, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
