package asyncvol

import (
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/taskengine"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

func TestAsyncMetadataDoesNotBlockCaller(t *testing.T) {
	// With a driver charging 10ms per metadata op, the async connector's
	// metadata calls must not advance the caller's clock; the charges
	// land on the background stream.
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true})
	drv := sleepDriver{bw: 1 << 30, meta: 10 * time.Millisecond}
	f, err := c.Create(vol.Props{}, hdf5.NewMemStore(), hdf5.WithDriver(drv))
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		g, err := f.Root().CreateGroup(pr, "step")
		if err != nil {
			t.Error(err)
			return
		}
		if err := g.SetAttrInt64(pr, "n", 1); err != nil {
			t.Error(err)
		}
		if _, err := g.CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(4), nil); err != nil {
			t.Error(err)
		}
		if _, err := f.Root().OpenGroup(pr, "step"); err != nil {
			t.Error(err)
		}
		if _, err := f.Root().OpenDataset(pr, "step/d"); err != nil {
			t.Error(err)
		}
		if p.Now() != 0 {
			t.Errorf("metadata blocked the caller until %v", p.Now())
		}
		// Draining pays the deferred charges: 1 create-group + 1 attr +
		// 1 create-dataset + 1 open-group hop + 2 open-dataset hops = 6
		// metadata ops × 10ms.
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		if p.Now() != 60*time.Millisecond {
			t.Errorf("deferred metadata cost %v, want 60ms", p.Now())
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscardPathsThroughConnector(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Copy: fixedCopy{bw: 1 * MiB}, Materialize: false})
	f, err := c.Create(vol.Props{}, hdf5.NewNullStore(),
		hdf5.WithDriver(sleepDriver{bw: 1 * MiB}))
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, err := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(MiB), nil)
		if err != nil {
			t.Error(err)
			return
		}
		// WriteDiscard: caller pays the 1s copy, background pays 1s write.
		start := p.Now()
		if err := ds.WriteDiscard(pr, nil); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != time.Second {
			t.Errorf("WriteDiscard blocked %v, want 1s copy", got)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		// ReadDiscard without prefetch: synchronous charged read (1s).
		start = p.Now()
		if err := ds.ReadDiscard(pr, nil); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != time.Second {
			t.Errorf("cold ReadDiscard took %v, want 1s", got)
		}
		// Prefetch + ReadDiscard: wait + copy only.
		if err := ds.Prefetch(pr, nil); err != nil {
			t.Error(err)
		}
		// Duplicate prefetch is a no-op.
		if err := ds.Prefetch(pr, nil); err != nil {
			t.Error(err)
		}
		p.Sleep(2 * time.Second) // let the background read finish
		start = p.Now()
		if err := ds.ReadDiscard(pr, nil); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != time.Second {
			t.Errorf("prefetched ReadDiscard took %v, want 1s copy", got)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushDrainsThenWritesMetadata(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true})
	store := hdf5.NewMemStore()
	f, err := c.Create(vol.Props{}, store, hdf5.WithDriver(sleepDriver{bw: 1 * MiB}))
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(MiB), nil)
		if err := ds.Write(pr, nil, make([]byte, MiB)); err != nil {
			t.Error(err)
		}
		if err := f.Flush(pr); err != nil {
			t.Error(err)
		}
		// Flush waited for the 1s background write.
		if p.Now() < time.Second {
			t.Errorf("Flush returned at %v before background write", p.Now())
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	// Metadata reached the store: reopening works.
	if _, err := hdf5.Open(store); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetAccessors(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true})
	f, _ := c.Create(vol.Props{}, hdf5.NewMemStore())
	ds, err := f.Root().CreateDataset(vol.Props{}, "d", hdf5.F32, hdf5.MustSimple(4, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NBytes() != 4*8*4 {
		t.Fatalf("NBytes = %d", ds.NBytes())
	}
	if ds.Dtype() != hdf5.F32 {
		t.Fatalf("Dtype = %v", ds.Dtype())
	}
	if ds.Unwrap() == nil {
		t.Fatal("Unwrap nil")
	}
	c.Shutdown()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCounter(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true})
	f, _ := c.Create(vol.Props{}, hdf5.NewMemStore(),
		hdf5.WithDriver(sleepDriver{bw: 1 * MiB}))
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(2*MiB), nil)
		if err := ds.Write(pr, nil, make([]byte, 2*MiB)); err != nil {
			t.Error(err)
		}
		// The dataset create's deferred metadata charge, then the write.
		if n := c.stream.Pending(); n != 2 {
			t.Errorf("stream holds %d operations after a create and a write, want 2", n)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		if n := c.stream.Pending(); n != 0 {
			t.Errorf("stream holds %d operations after drain", n)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}
