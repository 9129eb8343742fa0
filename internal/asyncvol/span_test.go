package asyncvol

import (
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
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

// TestAggregatedAsyncWritesShareOneDispatch verifies the connector's
// aggregation stage: two adjacent staged writes become one background
// task and one storage dispatch, and both writers' event sets observe
// the merged completion.
func TestAggregatedAsyncWritesShareOneDispatch(t *testing.T) {
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "rank0", Options{
		Copy:        fixedCopy{bw: 4 * MiB},
		Materialize: true,
		Aggregate:   ioreq.AggConfig{MaxRequests: 2},
	})
	target := pfs.NewTarget(clk.Clock, pfs.TargetConfig{Name: "test", BackendPeak: 1 * MiB})
	f, err := c.Create(vol.Props{}, hdf5.NewMemStore(), hdf5.WithDriver(target))
	if err != nil {
		t.Fatal(err)
	}

	clk.Go("app", func(p *vclock.Proc) {
		const n = 1 * MiB
		ds, err := f.Root().CreateDataset(vol.Props{Proc: p}, "x", hdf5.U8, hdf5.MustSimple(2*n), nil)
		if err != nil {
			t.Error(err)
			return
		}
		es := NewEventSet()
		for i := uint64(0); i < 2; i++ {
			sp := hdf5.MustSimple(2 * n)
			if err := sp.SelectHyperslab([]uint64{i * n}, nil, []uint64{1}, []uint64{n}); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = byte(i + 1)
			}
			if err := ds.Write(vol.Props{Proc: p, Set: es}, sp, buf); err != nil {
				t.Error(err)
				return
			}
		}
		if err := es.Wait(p); err != nil {
			t.Error(err)
			return
		}
		if got := target.Stats().WriteOps; got != 1 {
			t.Errorf("WriteOps = %d, want 1 (adjacent writes coalesce)", got)
		}
		if st := c.AggStats(); st.Dispatched != 1 || st.Absorbed != 1 {
			t.Errorf("agg stats = %+v, want Dispatched 1, Absorbed 1", st)
		}
		// Both halves must have landed.
		got := make([]byte, 2*n)
		if err := ds.Read(vol.Props{Proc: p}, nil, got); err != nil {
			t.Error(err)
			return
		}
		if got[0] != 1 || got[n-1] != 1 || got[n] != 2 || got[2*n-1] != 2 {
			t.Errorf("merged write landed wrong: edges %d %d %d %d",
				got[0], got[n-1], got[n], got[2*n-1])
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
		if err := ds.Write(vol.Props{Proc: p, Set: vol.NullEventSet{}}, nil, make([]byte, 8)); err == nil {
			t.Error("Write with foreign event set: err = nil, want type error")
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}
