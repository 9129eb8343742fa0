package asyncvol

import (
	"testing"

	"asyncio/internal/hdf5"
	"asyncio/internal/taskengine"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// TestAllocBudgetWriteDrain: one staged write, tracked by an event set
// and drained, on a bare clock. What remains per operation is the
// selection copy (descriptor + one backing array), the request, the
// background op with its bound run method, and the task; the event set's
// own list grows amortized.
func TestAllocBudgetWriteDrain(t *testing.T) {
	clk := newHeldClock()
	c := New(taskengine.New(clk.Clock), "rank0", Options{Copy: fixedCopy{bw: 4 * MiB}})
	f, err := c.Create(vol.Props{}, hdf5.NewNullStore(), hdf5.WithDriver(sleepDriver{bw: 1 * MiB}))
	if err != nil {
		t.Fatal(err)
	}
	var allocs float64
	clk.Go("app", func(p *vclock.Proc) {
		defer c.Shutdown()
		ds, err := f.Root().CreateDataset(vol.Props{Proc: p}, "x", hdf5.U8, hdf5.MustSimple(4*MiB), nil)
		if err != nil {
			t.Error(err)
			return
		}
		slab := hdf5.MustSimple(4 * MiB)
		if err := slab.SelectHyperslab([]uint64{MiB}, nil, []uint64{1}, []uint64{MiB}); err != nil {
			t.Error(err)
			return
		}
		es := NewEventSet()
		round := func() {
			if err := ds.WriteDiscard(vol.Props{Proc: p, Set: es}, slab); err != nil {
				t.Error(err)
			}
			if err := c.Drain(p); err != nil {
				t.Error(err)
			}
		}
		allocs = testing.AllocsPerRun(200, round)
		if err := es.Wait(p); err != nil {
			t.Error(err)
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs > 6 {
		t.Fatalf("WriteDiscard+Drain allocates %.1f objects, budget 6", allocs)
	}
}
