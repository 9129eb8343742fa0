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
// order (waiter i registers at i µs), kills the listed ones at 50 µs,
// fires at 60 µs and returns the order the rest resumed in.
func wakeOrder(t *testing.T, n int, kill ...int) []int {
	t.Helper()
	c := New()
	h := new(embedded)
	h.done.Init(c, "test:done")
	var (
		mu    sync.Mutex
		order []int
		procs = make([]*Proc, n)
	)
	release := c.Hold()
	for i := 0; i < n; i++ {
		c.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
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
	c.Go("firer", func(p *Proc) {
		p.Sleep(50 * time.Microsecond)
		for _, i := range kill {
			procs[i].Kill(errors.New("boom"))
		}
		p.Sleep(10 * time.Microsecond)
		h.done.Fire()
	})
	release()
	if err := c.Wait(); err != nil {
		t.Fatalf("kill=%v: %v", kill, err)
	}
	return order
}

// TestEventWakeOrder pins the inline-waiter Event's contract: waiters
// resume in registration order, and killing the first (the inline slot),
// a middle and the last waiter before Fire leaves the rest in order.
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
		if got := wakeOrder(t, n, tc.kill...); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("kill=%v: woke %v, want %v", tc.kill, got, tc.want)
		}
	}
	// A lone waiter lives in the inline slot only; killing it must leave
	// an event that still fires cleanly.
	if got := wakeOrder(t, 1, 0); got != nil {
		t.Errorf("killed lone waiter woke %v", got)
	}
}

// waitLog records every blocking edge it observes.
type waitLog struct{ edges []string }

func (w *waitLog) ObserveWait(id int, proc, kind, label string, start, end time.Duration) {
	w.edges = append(w.edges, fmt.Sprintf("%d:%s %s %s %v-%v", id, proc, kind, label, start, end))
}

// TestEventWaitObservedFromBlockInstant: when the last runnable process
// calls Event.Wait, blocking it advances the clock inline to the instant
// a timer fires the event. The observer must still see the wait start
// at the instant the process blocked, not the instant it woke.
func TestEventWaitObservedFromBlockInstant(t *testing.T) {
	c := New()
	obs := new(waitLog)
	c.SetWaitObserver(obs)
	ev := NewEventNamed(c, "test:late")
	c.Go("lone", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		c.AfterFunc(7*time.Microsecond, func(time.Duration) { ev.Fire() })
		ev.Wait(p)
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"0:lone sleep  0s-3µs", "0:lone event test:late 3µs-10µs"}
	if !reflect.DeepEqual(obs.edges, want) {
		t.Fatalf("observed %q, want %q", obs.edges, want)
	}
}

// TestEventWaitForeignClockPanics: a process may only wait on events of
// its own clock; mixing clocks is a programming error, reported loudly.
func TestEventWaitForeignClockPanics(t *testing.T) {
	c := New()
	ev := NewEventNamed(New(), "")
	var got any
	c.Go("w", func(p *Proc) {
		defer func() { got = recover() }()
		ev.Wait(p)
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Event.Wait on another clock's event did not panic")
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
