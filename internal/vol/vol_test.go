package vol

import (
	"bytes"
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/vclock"
)

// tickDriver counts operations and charges fixed times.
type tickDriver struct {
	writes, reads, metas int
}

func (d *tickDriver) WriteData(p *vclock.Proc, n int64) {
	d.writes++
	if p != nil {
		p.Sleep(time.Second)
	}
}

func (d *tickDriver) ReadData(p *vclock.Proc, n int64) {
	d.reads++
	if p != nil {
		p.Sleep(time.Second)
	}
}

func (d *tickDriver) MetaOp(p *vclock.Proc) {
	d.metas++
	if p != nil {
		p.Sleep(time.Millisecond)
	}
}

func TestNativeConnectorRoundtrip(t *testing.T) {
	drv := &tickDriver{}
	store := hdf5.NewMemStore()
	f, err := Native{}.Create(Props{}, store, hdf5.WithDriver(drv))
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Root().CreateGroup(Props{}, "g")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := g.CreateDataset(Props{}, "d", hdf5.U8, hdf5.MustSimple(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	in := bytes.Repeat([]byte{9}, 16)
	if err := ds.Write(Props{}, nil, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 16)
	if err := ds.Read(Props{}, nil, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("roundtrip mismatch")
	}
	if ds.NBytes() != 16 || ds.Dtype() != hdf5.U8 {
		t.Fatal("dataset metadata accessors wrong")
	}
	if ds.Unwrap() == nil {
		t.Fatal("Unwrap returned nil")
	}
	// Prefetch is a documented no-op.
	if err := ds.Prefetch(Props{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(Props{}); err != nil {
		t.Fatal(err)
	}
	if drv.writes != 1 || drv.reads != 1 {
		t.Fatalf("driver counts: writes=%d reads=%d", drv.writes, drv.reads)
	}
	// Reopen and adopt the file: how a second run reads a first one's.
	raw, err := hdf5.Open(store, hdf5.WithDriver(drv))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Native{}).Wrap(raw).Root().OpenDataset(Props{}, "g/d"); err != nil {
		t.Fatal(err)
	}
}

func TestNativeChargesActingProc(t *testing.T) {
	clk := vclock.New()
	drv := &tickDriver{}
	f, err := Native{}.Create(Props{}, hdf5.NewMemStore(), hdf5.WithDriver(drv))
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("rank", func(p *vclock.Proc) {
		pr := Props{Proc: p}
		ds, err := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(8), nil)
		if err != nil {
			t.Error(err)
			return
		}
		afterMeta := p.Now()
		if afterMeta != time.Millisecond {
			t.Errorf("create charged %v, want 1ms", afterMeta)
		}
		if err := ds.Write(pr, nil, make([]byte, 8)); err != nil {
			t.Error(err)
		}
		if got := p.Now() - afterMeta; got != time.Second {
			t.Errorf("write charged %v, want 1s", got)
		}
		if err := ds.WriteDiscard(pr, nil); err != nil {
			t.Error(err)
		}
		if err := ds.ReadDiscard(pr, nil); err != nil {
			t.Error(err)
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if drv.writes != 2 || drv.reads != 1 {
		t.Fatalf("discard ops not charged: writes=%d reads=%d", drv.writes, drv.reads)
	}
}

func TestNativeGroupAttrs(t *testing.T) {
	raw, err := hdf5.Create(hdf5.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := Native{}.Wrap(raw).Root().CreateGroup(Props{}, "meta")
	if err := g.SetAttrInt64(Props{}, "n", 7); err != nil {
		t.Fatal(err)
	}
	// The attribute landed in the container the connector wraps.
	rg, err := raw.Root().OpenGroup(nil, "meta")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rg.AttrInt64(nil, "n"); err != nil || v != 7 {
		t.Fatalf("n = %d, %v", v, err)
	}
}

func TestPropsTP(t *testing.T) {
	if (Props{}).TP().Proc != nil {
		t.Fatal("empty props must carry nil proc")
	}
}
