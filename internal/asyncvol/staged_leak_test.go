package asyncvol

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/metrics"
	"asyncio/internal/taskengine"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// stubFaults is a minimal FaultModel: a fixed staging budget, no
// background stalls.
type stubFaults struct {
	cap       int64
	exhausted int
}

func (s *stubFaults) BackgroundStall(time.Duration) time.Duration { return 0 }
func (s *stubFaults) StagingCapacity() int64                      { return s.cap }
func (s *stubFaults) StagingExhausted()                           { s.exhausted++ }

// TestStagedBytesReleasedAfterFaultedRun is the regression test for the
// staged-buffer leak: a background dispatch that fails used to keep its
// staging bytes accounted forever, so the staged-bytes gauge never
// returned to zero and capacity checks eventually degraded every write.
func TestStagedBytesReleasedAfterFaultedRun(t *testing.T) {
	sentinel := errors.New("injected disk failure")
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	reg := metrics.NewRegistry(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true, Metrics: reg})
	store := &failingStore{MemStore: hdf5.NewMemStore(), allow: 2, err: sentinel}
	f, err := c.Create(vol.Props{}, store)
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, err := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(64), nil)
		if err != nil {
			t.Error(err)
			return
		}
		store.allow = 0 // every background dispatch from here fails
		for i := 0; i < 4; i++ {
			if err := ds.Write(pr, nil, make([]byte, 64)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		if err := c.Drain(p); !errors.Is(err, sentinel) {
			t.Errorf("Drain = %v, want injected failure", err)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := c.StagedOutstanding(); n != 0 {
		t.Errorf("StagedOutstanding = %d after faulted run, want 0", n)
	}
	g := reg.FindGauge("asyncvol.staged_outstanding_bytes")
	if g == nil {
		t.Fatal("staged_outstanding_bytes gauge not registered")
	}
	if v := g.Value(); v != 0 {
		t.Errorf("staged_outstanding_bytes gauge = %v after faulted run, want 0", v)
	}
}

// TestStagingExhaustionFallsBackSynchronously covers the degraded path:
// a write that would exceed the staging budget must complete in place on
// the caller (correct data, no background task) and must not disturb
// the staged-byte accounting.
func TestStagingExhaustionFallsBackSynchronously(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	reg := metrics.NewRegistry(clk.Clock)
	fm := &stubFaults{cap: 100}
	c := New(eng, "r0", Options{Materialize: true, Metrics: reg, Faults: fm})
	f, err := c.Create(vol.Props{}, hdf5.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	bufA := bytes.Repeat([]byte{0xAA}, 64)
	bufB := bytes.Repeat([]byte{0xBB}, 64)
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		a, err := f.Root().CreateDataset(pr, "a", hdf5.U8, hdf5.MustSimple(64), nil)
		if err != nil {
			t.Error(err)
			return
		}
		b, err := f.Root().CreateDataset(pr, "b", hdf5.U8, hdf5.MustSimple(64), nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := a.Write(pr, nil, bufA); err != nil { // 64 B staged, under budget
			t.Error(err)
		}
		if err := b.Write(pr, nil, bufB); err != nil { // 64+64 > 100: in-place fallback
			t.Error(err)
		}
		if fm.exhausted != 1 {
			t.Errorf("StagingExhausted called %d times, want 1", fm.exhausted)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		for _, tc := range []struct {
			ds   vol.Dataset
			want []byte
		}{{a, bufA}, {b, bufB}} {
			out := make([]byte, 64)
			if err := tc.ds.Read(pr, nil, out); err != nil {
				t.Error(err)
			} else if !bytes.Equal(out, tc.want) {
				t.Errorf("read back %x, want %x", out[0], tc.want[0])
			}
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := c.StagedOutstanding(); n != 0 {
		t.Errorf("StagedOutstanding = %d, want 0", n)
	}
	if v := reg.FindGauge("asyncvol.staged_outstanding_bytes").Value(); v != 0 {
		t.Errorf("staged_outstanding_bytes gauge = %v, want 0", v)
	}
}
