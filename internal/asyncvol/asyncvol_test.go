package asyncvol

import (
	"bytes"
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/taskengine"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// sleepDriver charges a fixed bandwidth for data and a fixed latency for
// metadata — a minimal stand-in for the pfs models.
type sleepDriver struct {
	bw   float64 // bytes/s
	meta time.Duration
}

func (d sleepDriver) WriteData(p *vclock.Proc, n int64) {
	if p != nil {
		p.Sleep(time.Duration(float64(n) / d.bw * float64(time.Second)))
	}
}

func (d sleepDriver) ReadData(p *vclock.Proc, n int64) {
	if p != nil {
		p.Sleep(time.Duration(float64(n) / d.bw * float64(time.Second)))
	}
}

func (d sleepDriver) MetaOp(p *vclock.Proc) {
	if p != nil {
		p.Sleep(d.meta)
	}
}

// fixedCopy charges a fixed bandwidth for the transactional copy.
type fixedCopy struct {
	bw float64
}

func (c fixedCopy) Copy(p *vclock.Proc, n int64) {
	if p != nil {
		p.Sleep(time.Duration(float64(n) / c.bw * float64(time.Second)))
	}
}

const MiB = 1 << 20

// heldClock is a virtual clock for tests driven from host code. It is
// pinned (vclock.Clock.Hold) whenever the host is running — assembling a
// connector, whose idle stream would otherwise look like a deadlock
// before the application process exists, or spawning processes — and
// released exactly while the host sits in Wait.
type heldClock struct {
	*vclock.Clock
	release func()
}

func newHeldClock() *heldClock {
	clk := vclock.New()
	return &heldClock{Clock: clk, release: clk.Hold()}
}

func (h *heldClock) Wait() error {
	h.release()
	err := h.Clock.Wait()
	h.release = h.Clock.Hold()
	return err
}

// setup creates a clock, an engine, a connector, and a file backed by a
// MemStore with a 1 MiB/s driver.
func setup(t *testing.T, opts Options) (*heldClock, *Connector, vol.File) {
	t.Helper()
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "rank0", opts)
	f, err := c.Create(vol.Props{}, hdf5.NewMemStore(),
		hdf5.WithDriver(sleepDriver{bw: 1 * MiB}))
	if err != nil {
		t.Fatal(err)
	}
	return clk, c, f
}

func TestAsyncWriteReturnsAfterCopyOnly(t *testing.T) {
	// Driver write of 4 MiB takes 4s; the transactional copy at 4 MiB/s
	// takes 1s. The caller must be blocked only for the copy.
	opts := Options{Copy: fixedCopy{bw: 4 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		ds, err := f.Root().CreateDataset(vol.Props{Proc: p}, "x", hdf5.U8, hdf5.MustSimple(4*MiB), nil)
		if err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		es := NewEventSet()
		if err := ds.Write(vol.Props{Proc: p, Set: es}, nil, make([]byte, 4*MiB)); err != nil {
			t.Error(err)
			return
		}
		blocked := p.Now() - start
		if blocked != 1*time.Second {
			t.Errorf("Write blocked caller %v, want 1s (copy only)", blocked)
		}
		if len(es.tasks) != 1 {
			t.Errorf("event set tracks %d operations, want 1", len(es.tasks))
		}
		if err := es.Wait(p); err != nil {
			t.Error(err)
		}
		// Copy 1s + background write 4s.
		if p.Now() != 5*time.Second {
			t.Errorf("completion at %v, want 5s", p.Now())
		}
		if err := f.Close(vol.Props{Proc: p}); err != nil {
			t.Error(err)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncWriteOverlapsCompute(t *testing.T) {
	// Eq. 2b, ideal scenario: compute (6s) ≥ background I/O (4s), so the
	// epoch costs copy (1s) + compute (6s) = 7s.
	opts := Options{Copy: fixedCopy{bw: 4 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		ds, _ := f.Root().CreateDataset(vol.Props{Proc: p}, "x", hdf5.U8, hdf5.MustSimple(4*MiB), nil)
		es := NewEventSet()
		start := p.Now()
		if err := ds.Write(vol.Props{Proc: p, Set: es}, nil, make([]byte, 4*MiB)); err != nil {
			t.Error(err)
		}
		p.Sleep(6 * time.Second) // compute phase
		if err := es.Wait(p); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != 7*time.Second {
			t.Errorf("async epoch = %v, want 7s (1s copy + 6s compute, I/O hidden)", got)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncWriteDataLandsCorrectly(t *testing.T) {
	opts := Options{Copy: fixedCopy{bw: 100 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "x", hdf5.U8, hdf5.MustSimple(1024), nil)
		buf := make([]byte, 1024)
		for i := range buf {
			buf[i] = byte(i % 251)
		}
		if err := ds.Write(pr, nil, buf); err != nil {
			t.Error(err)
		}
		// Mutate the caller's buffer immediately — the staged private
		// copy must protect the write (this is what the transactional
		// overhead buys).
		for i := range buf {
			buf[i] = 0xFF
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		out := make([]byte, 1024)
		if err := ds.Read(pr, nil, out); err != nil {
			t.Error(err)
		}
		for i := range out {
			if out[i] != byte(i%251) {
				t.Errorf("byte %d = %d, want %d (caller mutation leaked)", i, out[i], i%251)
				break
			}
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestWritesExecuteInOrder(t *testing.T) {
	opts := Options{Copy: fixedCopy{bw: 100 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "x", hdf5.U8, hdf5.MustSimple(8), nil)
		for v := byte(1); v <= 3; v++ {
			buf := bytes.Repeat([]byte{v}, 8)
			if err := ds.Write(pr, nil, buf); err != nil {
				t.Error(err)
			}
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		out := make([]byte, 8)
		if err := ds.Read(pr, nil, out); err != nil {
			t.Error(err)
		}
		for _, b := range out {
			if b != 3 {
				t.Errorf("last write not final: %v", out)
				break
			}
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchHitCostsOnlyCopy(t *testing.T) {
	// 2 MiB dataset: sync read = 2s; prefetched read = copy at 2 MiB/s =
	// 1s, overlapped with a 3s compute so the read returns immediately
	// after the copy.
	opts := Options{Copy: fixedCopy{bw: 2 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "x", hdf5.U8, hdf5.MustSimple(2*MiB), nil)
		want := bytes.Repeat([]byte{7}, 2*MiB)
		if err := ds.Write(pr, nil, want); err != nil {
			t.Error(err)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		if err := ds.Prefetch(pr, nil); err != nil {
			t.Error(err)
		}
		p.Sleep(3 * time.Second) // compute; prefetch (2s) completes inside
		start := p.Now()
		out := make([]byte, 2*MiB)
		if err := ds.Read(pr, nil, out); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != time.Second {
			t.Errorf("prefetched read took %v, want 1s (staging copy only)", got)
		}
		if !bytes.Equal(out, want) {
			t.Error("prefetched data mismatch")
		}
		// Second read of the same selection is a cache miss (entries are
		// one-shot) and goes back to the synchronous path.
		start = p.Now()
		if err := ds.Read(pr, nil, out); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != 2*time.Second {
			t.Errorf("post-prefetch read took %v, want 2s (sync)", got)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchStillInFlightBlocksUntilDone(t *testing.T) {
	opts := Options{Copy: fixedCopy{bw: 100 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "x", hdf5.U8, hdf5.MustSimple(4*MiB), nil)
		if err := ds.Write(pr, nil, make([]byte, 4*MiB)); err != nil {
			t.Error(err)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		ioStart := p.Now()
		if err := ds.Prefetch(pr, nil); err != nil {
			t.Error(err)
		}
		// No compute: read immediately; must wait the full 4s background
		// read (partial overlap scenario).
		out := make([]byte, 4*MiB)
		if err := ds.Read(pr, nil, out); err != nil {
			t.Error(err)
		}
		if got := p.Now() - ioStart; got < 4*time.Second {
			t.Errorf("read returned after %v, before prefetch could finish", got)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchSelectionKeyedBySlab(t *testing.T) {
	opts := Options{Copy: fixedCopy{bw: 100 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "x", hdf5.U8, hdf5.MustSimple(1024), nil)
		seed := make([]byte, 1024)
		for i := range seed {
			seed[i] = byte(i)
		}
		if err := ds.Write(pr, nil, seed); err != nil {
			t.Error(err)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		slab := hdf5.MustSimple(1024)
		if err := slab.SelectHyperslab([]uint64{512}, nil, []uint64{1}, []uint64{256}); err != nil {
			t.Error(err)
		}
		if err := ds.Prefetch(pr, slab); err != nil {
			t.Error(err)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		out := make([]byte, 256)
		if err := ds.Read(pr, slab, out); err != nil {
			t.Error(err)
		}
		for i := range out {
			if out[i] != byte(512+i) {
				t.Errorf("slab byte %d = %d, want %d", i, out[i], byte(512+i))
				break
			}
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDrainsPendingWrites(t *testing.T) {
	opts := Options{Copy: fixedCopy{bw: 100 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "x", hdf5.U8, hdf5.MustSimple(2*MiB), nil)
		if err := ds.Write(pr, nil, make([]byte, 2*MiB)); err != nil {
			t.Error(err)
		}
		start := p.Now()
		if err := f.Close(pr); err != nil {
			t.Error(err)
		}
		// Close must have waited for the 2s background write.
		if got := p.Now() - start; got < 2*time.Second {
			t.Errorf("Close returned after %v, pending write not drained", got)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestNilCopyModelIsZeroOverhead(t *testing.T) {
	// Ablation: zero-copy async. The caller must not block at all.
	opts := Options{Copy: nil, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "x", hdf5.U8, hdf5.MustSimple(4*MiB), nil)
		start := p.Now()
		if err := ds.Write(pr, nil, make([]byte, 4*MiB)); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != 0 {
			t.Errorf("zero-copy write blocked %v", got)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTimingOnlyModeChargesWithoutData(t *testing.T) {
	opts := Options{Copy: fixedCopy{bw: 4 * MiB}, Materialize: false}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, _ := f.Root().CreateDataset(pr, "x", hdf5.U8, hdf5.MustSimple(4*MiB), nil)
		start := p.Now()
		if err := ds.Write(pr, nil, make([]byte, 4*MiB)); err != nil {
			t.Error(err)
		}
		if got := p.Now() - start; got != time.Second {
			t.Errorf("copy charge = %v, want 1s", got)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		if p.Now() != 5*time.Second {
			t.Errorf("drain at %v, want 5s", p.Now())
		}
		// Prefetch in timing-only mode uses ReadNull: charges time, no
		// allocation.
		if err := ds.Prefetch(pr, nil); err != nil {
			t.Error(err)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		if p.Now() != 9*time.Second {
			t.Errorf("prefetch drain at %v, want 9s", p.Now())
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestEventSetCollectsMultipleOps(t *testing.T) {
	opts := Options{Copy: fixedCopy{bw: 100 * MiB}, Materialize: true}
	clk, c, f := setup(t, opts)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		es := NewEventSet()
		prES := vol.Props{Proc: p, Set: es}
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			ds, err := f.Root().CreateDataset(pr, name, hdf5.U8, hdf5.MustSimple(MiB), nil)
			if err != nil {
				t.Error(err)
				return
			}
			if err := ds.Write(prES, nil, make([]byte, MiB)); err != nil {
				t.Error(err)
			}
		}
		if len(es.tasks) != 4 {
			t.Errorf("event set tracks %d operations with 4 writes in flight", len(es.tasks))
		}
		if err := es.Wait(p); err != nil {
			t.Error(err)
		}
		if len(es.tasks) != 0 {
			t.Errorf("event set still tracks %d operations after Wait", len(es.tasks))
		}
		// First copy finishes at 10ms; 4 writes of 1 MiB at 1 MiB/s run
		// back-to-back on one background stream → done at 4.01s.
		if want := 4*time.Second + 10*time.Millisecond; p.Now() != want {
			t.Errorf("all writes done at %v, want %v (serialized on one stream)", p.Now(), want)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}
