package asyncvol

import (
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/taskengine"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

func TestConnectorNameAndOpen(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "rank7", Options{Materialize: true})
	if c.Name() != "async:rank7" {
		t.Fatalf("Name = %q", c.Name())
	}
	store := hdf5.NewMemStore()
	f, err := c.Create(vol.Props{}, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Root().CreateGroup(vol.Props{}, "g"); err != nil {
		t.Fatal(err)
	}
	clk.Go("x", func(p *vclock.Proc) {
		if err := f.Close(vol.Props{Proc: p}); err != nil {
			t.Error(err)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	// Open through a second connector (fresh stream).
	c2 := New(eng, "rank8", Options{Materialize: true})
	f2, err := c2.Open(vol.Props{}, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Root().List(); len(got) != 1 || got[0] != "g" {
		t.Fatalf("List = %v", got)
	}
	c2.Shutdown()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

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
		if err := g.SetAttrString(pr, "s", "x"); err != nil {
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
		// Draining pays the deferred charges: 1 create-group + 2 attrs +
		// 1 create-dataset + 1 open-group hop + 2 open-dataset hops = 7
		// metadata ops × 10ms.
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		if p.Now() != 70*time.Millisecond {
			t.Errorf("deferred metadata cost %v, want 70ms", p.Now())
		}
		// Attribute reads return values, so they stay synchronous.
		g2, _ := f.Root().OpenGroup(pr, "step")
		before := p.Now()
		if v, err := g2.AttrInt64(pr, "n"); err != nil || v != 1 {
			t.Errorf("AttrInt64 = %d, %v", v, err)
		}
		if s, err := g2.AttrString(pr, "s"); err != nil || s != "x" {
			t.Errorf("AttrString = %q, %v", s, err)
		}
		if p.Now() == before {
			t.Error("attribute reads should charge the caller")
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
	if dims := ds.Dims(); len(dims) != 2 || dims[1] != 8 {
		t.Fatalf("Dims = %v", dims)
	}
	if ds.Unwrap() == nil {
		t.Fatal("Unwrap nil")
	}
	c.Shutdown()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPendingBackpressure(t *testing.T) {
	// With MaxPending=1 and 1s background writes, the second submission
	// must block until the first completes; unbounded submissions
	// return immediately.
	run := func(maxPending int) time.Duration {
		clk := newHeldClock()
		eng := taskengine.New(clk.Clock)
		c := New(eng, "r0", Options{Materialize: true, MaxPending: maxPending})
		f, err := c.Create(vol.Props{}, hdf5.NewMemStore(),
			hdf5.WithDriver(sleepDriver{bw: 1 * MiB}))
		if err != nil {
			t.Fatal(err)
		}
		var submitted time.Duration
		clk.Go("app", func(p *vclock.Proc) {
			pr := vol.Props{Proc: p}
			ds, err := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(4*MiB), nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 3; i++ {
				sel := hdf5.MustSimple(4 * MiB)
				if err := sel.SelectHyperslab([]uint64{uint64(i) * MiB}, nil,
					[]uint64{1}, []uint64{MiB}); err != nil {
					t.Error(err)
				}
				if err := ds.Write(pr, sel, make([]byte, MiB)); err != nil {
					t.Error(err)
				}
			}
			submitted = p.Now()
			if err := c.Drain(p); err != nil {
				t.Error(err)
			}
			c.Shutdown()
		})
		if err := clk.Wait(); err != nil {
			t.Fatal(err)
		}
		return submitted
	}
	unbounded := run(0)
	bounded := run(1)
	if unbounded != 0 {
		t.Fatalf("unbounded submissions blocked %v", unbounded)
	}
	// Bounded: 3rd submission waits for writes 1 and 2 (1s each).
	if bounded < 2*time.Second {
		t.Fatalf("bounded submissions blocked only %v, want >= 2s", bounded)
	}
}

func TestPendingCounter(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true, MaxPending: 8})
	f, _ := c.Create(vol.Props{}, hdf5.NewMemStore(),
		hdf5.WithDriver(sleepDriver{bw: 1 * MiB}))
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(2*MiB), nil)
		if err := ds.Write(pr, nil, make([]byte, 2*MiB)); err != nil {
			t.Error(err)
		}
		if n := c.Pending(); n != 1 {
			t.Errorf("Pending = %d mid-flight, want 1", n)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		if n := c.Pending(); n != 0 {
			t.Errorf("Pending = %d after drain", n)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}
