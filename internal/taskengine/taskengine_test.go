package taskengine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

// heldClock is a virtual clock for tests driven from host code. It is
// pinned (vclock.Clock.Hold) whenever the host is running — creating
// streams, whose idle processes would otherwise look like a deadlock, or
// pushing tasks and spawning processes that must all start at the same
// virtual instant — and released exactly while the host sits in Wait.
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

func TestTasksRunInFIFOOrder(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	var mu sync.Mutex
	var order []int
	for i := 0; i < 10; i++ {
		s.Push("t", nil, func(p *vclock.Proc) error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		})
	}
	s.Shutdown()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTaskWaitReturnsError(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	sentinel := errors.New("io failed")
	task := s.Push("fail", nil, func(p *vclock.Proc) error { return sentinel })
	var got error
	clk.Go("waiter", func(p *vclock.Proc) {
		got = task.Wait(p)
		s.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, sentinel) {
		t.Fatalf("Wait = %v", got)
	}
	if !task.done.Fired() {
		t.Fatal("task not done")
	}
}

func TestTaskOverlapsWithForeground(t *testing.T) {
	// The core asynchronous-I/O property: a 10s background task pushed at
	// t=0 overlaps a 10s foreground sleep, so the waiter finishes at 10s,
	// not 20s.
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	var end time.Duration
	clk.Go("fg", func(p *vclock.Proc) {
		task := s.Push("io", nil, func(q *vclock.Proc) error {
			q.Sleep(10 * time.Second)
			return nil
		})
		p.Sleep(10 * time.Second) // compute phase
		if err := task.Wait(p); err != nil {
			t.Error(err)
		}
		end = p.Now()
		s.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if end != 10*time.Second {
		t.Fatalf("end = %v, want 10s (full overlap)", end)
	}
}

func TestDependenciesAcrossStreams(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s1 := e.NewStream("a")
	s2 := e.NewStream("b")
	var mu sync.Mutex
	var order []string
	slow := s1.Push("slow", nil, func(p *vclock.Proc) error {
		p.Sleep(5 * time.Second)
		mu.Lock()
		order = append(order, "slow")
		mu.Unlock()
		return nil
	})
	dep := s2.Push("dep", []*Task{slow}, func(p *vclock.Proc) error {
		mu.Lock()
		order = append(order, "dep")
		mu.Unlock()
		return nil
	})
	clk.Go("join", func(p *vclock.Proc) {
		if err := dep.Wait(p); err != nil {
			t.Error(err)
		}
		if p.Now() != 5*time.Second {
			t.Errorf("dep completed at %v, want 5s", p.Now())
		}
		s1.Shutdown()
		s2.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "slow" || order[1] != "dep" {
		t.Fatalf("order = %v", order)
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	ran := 0
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		s.Push("t", nil, func(p *vclock.Proc) error {
			p.Sleep(time.Second)
			mu.Lock()
			ran++
			mu.Unlock()
			return nil
		})
	}
	s.Shutdown()
	s.Shutdown() // idempotent
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran != 5 {
		t.Fatalf("ran = %d, want 5 (queue must drain before exit)", ran)
	}
}

func TestPushAfterShutdownPanics(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	s.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Push after Shutdown did not panic")
		}
		_ = clk.Wait()
	}()
	s.Push("late", nil, func(*vclock.Proc) error { return nil })
}

func TestJoinWaitsForExit(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	s.Push("work", nil, func(p *vclock.Proc) error {
		p.Sleep(3 * time.Second)
		return nil
	})
	s.Shutdown()
	var joined time.Duration
	clk.Go("joiner", func(p *vclock.Proc) {
		s.Join(p)
		joined = p.Now()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if joined != 3*time.Second {
		t.Fatalf("Join returned at %v, want 3s", joined)
	}
}

func TestPendingCount(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	// Block the stream with a task waiting on an event, then queue more.
	gate := vclock.NewEventNamed(clk.Clock, "")
	s.Push("gate", nil, func(p *vclock.Proc) error {
		gate.Wait(p)
		return nil
	})
	clk.Go("driver", func(p *vclock.Proc) {
		p.Sleep(time.Second)
		s.Push("a", nil, func(*vclock.Proc) error { return nil })
		s.Push("b", nil, func(*vclock.Proc) error { return nil })
		if n := s.Pending(); n != 2 {
			t.Errorf("Pending = %d, want 2", n)
		}
		gate.Fire()
		s.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("Pending after drain = %d", n)
	}
}

func TestManyStreamsConcurrent(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	const n = 32
	var mu sync.Mutex
	total := 0
	for i := 0; i < n; i++ {
		s := e.NewStream("bg")
		for j := 0; j < 10; j++ {
			s.Push("t", nil, func(p *vclock.Proc) error {
				p.Sleep(time.Second)
				mu.Lock()
				total++
				mu.Unlock()
				return nil
			})
		}
		s.Shutdown()
	}
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if total != n*10 {
		t.Fatalf("total = %d", total)
	}
	// Streams are parallel: 10 sequential seconds each, all overlapped.
	if now := clk.Now(); now != 10*time.Second {
		t.Fatalf("final time = %v, want 10s", now)
	}
}

// TestAllocBudgetPushWait: one task pushed and awaited on an idle stream
// allocates the Task and nothing else — its completion event is embedded,
// the single waiter sits in the event's inline slot, the stream re-arms
// one wake event, and the ring reuses its slot.
func TestAllocBudgetPushWait(t *testing.T) {
	clk := newHeldClock()
	eng := New(clk.Clock)
	fn := func(q *vclock.Proc) error { q.Sleep(time.Microsecond); return nil }
	var allocs float64
	clk.Go("app", func(p *vclock.Proc) {
		st := eng.NewStream("bg")
		defer st.Shutdown()
		allocs = testing.AllocsPerRun(200, func() {
			if err := st.Push("t", nil, fn).Wait(p); err != nil {
				t.Error(err)
			}
		})
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs > 1 {
		t.Fatalf("Push+Wait allocates %.1f objects, budget 1", allocs)
	}
}

// TestRingKeepsFIFOAcrossGrowth pushes while the ring's head is
// mid-buffer so growth has to unwrap it, and checks nothing is lost or
// reordered.
func TestRingKeepsFIFOAcrossGrowth(t *testing.T) {
	var r taskRing
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.push(&Task{name: fmt.Sprint(next)})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := r.pop().name; got != fmt.Sprint(want) {
				t.Fatalf("popped %s, want %d", got, want)
			}
			want++
		}
	}
	push(3)
	pop(2)
	push(3) // wraps in the initial 4-slot buffer
	push(5) // grows with head at 2
	pop(4)
	push(20)
	pop(r.n)
	if want != next {
		t.Fatalf("popped %d tasks, pushed %d", want, next)
	}
	for i, slot := range r.buf {
		if slot != nil {
			t.Fatalf("drained ring still holds a task in slot %d", i)
		}
	}
}

// TestCompletedTaskIsCollectable: with the stream still alive, a finished
// task nobody tracks is garbage (the queue cleared its slot), and a
// finished task somebody still tracks no longer pins what its closure
// captured — the staging buffer of a completed write.
func TestCompletedTaskIsCollectable(t *testing.T) {
	clk := vclock.New()
	eng := New(clk)
	bufFreed, taskFreed := make(chan struct{}), make(chan struct{})
	clk.Go("app", func(p *vclock.Proc) {
		st := eng.NewStream("bg")
		defer st.Shutdown()
		tracked := func() *Task {
			buf := make([]byte, 1<<16)
			runtime.SetFinalizer(&buf[0], func(*byte) { close(bufFreed) })
			staged := st.Push("staged", nil, func(*vclock.Proc) error { buf[0]++; return nil })
			later := st.Push("later", nil, func(*vclock.Proc) error { return nil })
			if err := errors.Join(staged.Wait(p), later.Wait(p)); err != nil {
				t.Error(err)
			}
			runtime.SetFinalizer(later, func(*Task) { close(taskFreed) })
			return staged
		}()
		// The stream stays alive and idle, as a rank's does between
		// checkpoints, while this proc collects and checks (it counts as
		// running, so the clock neither advances nor reports a deadlock).
		deadline := time.After(10 * time.Second)
		for bufFreed != nil || taskFreed != nil {
			runtime.GC()
			select {
			case <-bufFreed:
				bufFreed = nil
			case <-taskFreed:
				taskFreed = nil
			case <-deadline:
				t.Errorf("with the stream alive: tracked task's buffer freed=%v, untracked task freed=%v",
					bufFreed == nil, taskFreed == nil)
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		runtime.KeepAlive(tracked)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}
