package vclock

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// embedded holds an Event by value, the way flow's flowState and
// taskengine's Task do.
type embedded struct {
	pad  [3]int
	done Event
}

// wakeOrder registers n waiters on one value-embedded event in index
// order (waiter i registers at i µs, on shard i mod shards), kills the
// listed ones at 50 µs, fires at 60 µs and returns the order the rest
// resumed in. shards == 1 is the serial engine.
func wakeOrder(t *testing.T, shards, n int, kill ...int) []int {
	t.Helper()
	clks := []*Clock{New()}
	wait := clks[0].Wait
	if shards > 1 {
		co := NewSharded(shards)
		clks, wait = co.Clocks(), co.Wait
	}
	h := new(embedded)
	h.done.Init(clks[0], "test:done")
	var (
		mu    sync.Mutex
		order []int
		procs = make([]*Proc, n)
	)
	release := clks[0].Hold()
	for i := 0; i < n; i++ {
		clks[i%len(clks)].Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			mu.Lock()
			procs[i] = p
			mu.Unlock()
			p.Sleep(time.Duration(i) * time.Microsecond)
			h.done.Wait(p)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	clks[0].Go("firer", func(p *Proc) {
		p.Sleep(50 * time.Microsecond)
		for _, i := range kill {
			procs[i].Kill(errors.New("boom"))
		}
		p.Sleep(10 * time.Microsecond)
		h.done.Fire()
	})
	release()
	if err := wait(); err != nil {
		t.Fatalf("shards=%d kill=%v: %v", shards, kill, err)
	}
	return order
}

// TestEventWakeOrder pins the inline-waiter Event's contract on both
// engines: waiters resume in registration order, and killing the first
// (the inline slot), a middle and the last waiter before Fire leaves the
// rest in order.
func TestEventWakeOrder(t *testing.T) {
	const n = 6
	cases := []struct {
		kill []int
		want []int
	}{
		{nil, []int{0, 1, 2, 3, 4, 5}},
		{[]int{0}, []int{1, 2, 3, 4, 5}},
		{[]int{3}, []int{0, 1, 2, 4, 5}},
		{[]int{5}, []int{0, 1, 2, 3, 4}},
		{[]int{0, 3, 5}, []int{1, 2, 4}},
		{[]int{0, 1, 2, 3, 4, 5}, nil},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 4} {
			if got := wakeOrder(t, shards, n, tc.kill...); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("shards=%d kill=%v: woke %v, want %v", shards, tc.kill, got, tc.want)
			}
		}
	}
	// A lone waiter lives in the inline slot only; killing it must leave
	// an event that still fires cleanly.
	for _, shards := range []int{1, 4} {
		if got := wakeOrder(t, shards, 1, 0); got != nil {
			t.Errorf("shards=%d: killed lone waiter woke %v", shards, got)
		}
	}
}

// TestEventResetRearms: Fire before Wait returns immediately; after
// Reset the same embedded event blocks again until the next Fire, and a
// killed waiter's slot is reusable.
func TestEventResetRearms(t *testing.T) {
	c := New()
	h := new(embedded)
	h.done.Init(c, "")
	var woke []time.Duration
	c.Go("waiter", func(p *Proc) {
		h.done.Fire()
		h.done.Wait(p) // already fired: no block
		woke = append(woke, p.Now())
		for i := 0; i < 3; i++ {
			h.done.Reset()
			if h.done.Fired() {
				t.Error("Reset left the event fired")
			}
			c.AfterFunc(5*time.Microsecond, func(time.Duration) { h.done.Fire() })
			h.done.Wait(p)
			woke = append(woke, p.Now())
		}
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 5 * time.Microsecond, 10 * time.Microsecond, 15 * time.Microsecond}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
}

// TestAllocBudgetEventWait: a single-waiter wait on an embedded,
// re-armed event allocates nothing but the timer handle that fires it.
func TestAllocBudgetEventWait(t *testing.T) {
	c := New()
	h := new(embedded)
	h.done.Init(c, "")
	fire := func(time.Duration) { h.done.Fire() }
	var allocs float64
	c.Go("waiter", func(p *Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			h.done.Reset()
			c.AfterFunc(time.Microsecond, fire)
			h.done.Wait(p)
		})
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs > 1 {
		t.Fatalf("event wait allocates %.1f objects per round, budget 1 (the Timer)", allocs)
	}
}
