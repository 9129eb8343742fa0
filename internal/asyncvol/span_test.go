package asyncvol

import (
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/pfs"
	"asyncio/internal/taskengine"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// TestSpanFollowsRequestToBackgroundStream verifies end-to-end tracing:
// one span handed to an asynchronous Write records both the staging copy
// (on the caller, at submission time) and the file-system transfer (on
// the background stream, later) — the request carries the span across
// the queue.
func TestSpanFollowsRequestToBackgroundStream(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "rank0", Options{Copy: fixedCopy{bw: 4 * MiB}, Materialize: true})
	// The span reaches a pfs.Target through hdf5.FallibleDriver's
	// TryWriteData, so the background transfer lands on it too.
	// 1 MiB/s, no extras.
	target := pfs.NewTarget(clk.Clock, pfs.TargetConfig{Name: "test", BackendPeak: 1 * MiB})
	f, err := c.Create(vol.Props{}, hdf5.NewMemStore(), hdf5.WithDriver(target))
	if err != nil {
		t.Fatal(err)
	}

	clk.Go("app", func(p *vclock.Proc) {
		ds, err := f.Root().CreateDataset(vol.Props{Proc: p}, "x", hdf5.U8, hdf5.MustSimple(4*MiB), nil)
		if err != nil {
			t.Error(err)
			return
		}
		span := trace.NewSpan("epoch0:io")
		es := NewEventSet()
		pr := vol.Props{Proc: p, Set: es, Span: span}
		if err := ds.Write(pr, nil, make([]byte, 4*MiB)); err != nil {
			t.Error(err)
			return
		}
		// The staging copy happened on the caller before Write returned.
		stage, ok := span.Find("asyncvol:stage")
		if !ok {
			t.Errorf("span missing staging event right after Write:\n%s", span)
		}
		if _, ok := span.Find("pfs:test:write"); ok {
			t.Error("pfs write event present before completion")
		}
		if err := es.Wait(p); err != nil {
			t.Error(err)
			return
		}
		// The background transfer completed and recorded itself.
		wr, ok := span.Find("pfs:test:write")
		if !ok {
			t.Fatalf("span missing pfs write event after Wait:\n%s", span)
		}
		if wr.Bytes != 4*MiB {
			t.Errorf("pfs event bytes = %d, want %d", wr.Bytes, 4*MiB)
		}
		// Copy at 4 MiB/s = 1s; transfer at 1 MiB/s = 4s, starting after
		// the copy.
		if wr.Dur != 4*time.Second {
			t.Errorf("pfs event duration = %v, want 4s", wr.Dur)
		}
		if wr.At < stage.At {
			t.Errorf("transfer at %v before staging at %v", wr.At, stage.At)
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

// foreignSet is a vol.EventSet this connector did not make.
type foreignSet struct{}

func (foreignSet) Wait(*vclock.Proc) error { return nil }

// TestWrongEventSetTypeIsAnError pins the panic-to-error conversion: a
// foreign event-set implementation is reported, not a crash.
func TestWrongEventSetTypeIsAnError(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "rank0", Options{Materialize: true})
	f, err := c.Create(vol.Props{}, hdf5.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("app", func(p *vclock.Proc) {
		defer c.Shutdown()
		ds, err := f.Root().CreateDataset(vol.Props{Proc: p}, "x", hdf5.U8, hdf5.MustSimple(8), nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := ds.Write(vol.Props{Proc: p, Set: foreignSet{}}, nil, make([]byte, 8)); err == nil {
			t.Error("Write with foreign event set: err = nil, want type error")
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}
