package vclock

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// goroutinesSettleTo fails unless the goroutine count comes back down to
// base. The coroutines are destroyed when their bodies return; the short
// poll allows for goroutines of earlier tests still exiting.
func goroutinesSettleTo(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want the baseline %d: a coroutine outlived the run",
				what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines: after Wait the driver and every coroutine
// are gone — after a normal run, after a second run on the same clock (a
// new driver starts with the first Go), when every proc was killed where
// it blocked, and when a proc was killed before it ever ran.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	spawn := func(c *Clock, n int) []*Proc {
		procs := make([]*Proc, n)
		ev := NewEventNamed(c, "")
		for i := range procs {
			c.Go("p", func(p *Proc) {
				procs[i] = p
				p.Sleep(time.Duration(i+1) * time.Millisecond)
				if i == n-1 {
					ev.Fire()
				}
				ev.Wait(p) // all but the last block here
				p.Sleep(time.Hour)
			})
		}
		return procs
	}
	wait := func(c *Clock, what string, end time.Duration) {
		t.Helper()
		if err := c.Wait(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if c.Now() != end {
			t.Fatalf("%s: run ended at %v, want %v", what, c.Now(), end)
		}
		goroutinesSettleTo(t, base, what)
	}

	c := New()
	release := c.Hold()
	spawn(c, 8)
	release()
	wait(c, "normal run", time.Hour+8*time.Millisecond)
	release = c.Hold()
	spawn(c, 8)
	release()
	wait(c, "second run on the same clock", 2*(time.Hour+8*time.Millisecond))

	c = New()
	release = c.Hold()
	procs := spawn(c, 8)
	c.Go("killer", func(p *Proc) {
		p.Sleep(time.Second) // every victim is in its one-hour sleep
		for _, v := range procs {
			v.Kill(errBoom)
		}
	})
	release()
	wait(c, "every proc killed", time.Second)

	c = New()
	release = c.Hold()
	ran := false
	c.Go("victim", func(p *Proc) { ran = true })
	for v := range c.procs {
		v.Kill(errBoom) // spawned and queued, but held: it has not run
	}
	release()
	wait(c, "proc killed before its first run", 0)
	if ran {
		t.Fatal("a proc killed before its first run ran its body")
	}
}

// parkedAtOneSecond builds a run that Wait leaves parked: root spawns n
// waiters on ev, lets them block, takes a Hold and exits, so the first
// Wait returns ErrHeld with every proc blocked and the clock at 1s. The
// hour timer is what fires ev if the host does not.
func parkedAtOneSecond(t *testing.T, n int, woke *int) (c *Clock, ev *Event, procs []*Proc, release func()) {
	t.Helper()
	c = New()
	ev = NewEventNamed(c, "")
	c.AfterFunc(time.Hour, func(time.Duration) { ev.Fire() })
	procs = make([]*Proc, n)
	c.Go("root", func(p *Proc) {
		for i := range procs {
			c.Go("waiter", func(q *Proc) {
				procs[i] = q
				ev.Wait(q)
				*woke++
			})
		}
		p.Sleep(time.Second) // the waiters run, and block
		release = c.Hold()
	})
	if err := c.Wait(); !errors.Is(err, ErrHeld) {
		t.Fatalf("Wait on a held clock returned %v, want ErrHeld", err)
	}
	if c.Now() != time.Second || *woke != 0 {
		t.Fatalf("held clock stands at %v with %d waiters resumed, want 1s and 0", c.Now(), *woke)
	}
	return c, ev, procs, release
}

// TestHostResumesParkedClock: a Wait that finds the clock held returns
// ErrHeld instead of hanging, and what the host then does — release alone,
// fire the event the procs wait on, or kill them — only enqueues: nothing
// resumes until the next Wait, which carries the run to its end.
func TestHostResumesParkedClock(t *testing.T) {
	const n = 4
	cases := []struct {
		name string
		host func(ev *Event, procs []*Proc)
		end  time.Duration
		woke int
	}{
		{"release", func(*Event, []*Proc) {}, time.Hour, n},
		{"fire", func(ev *Event, _ []*Proc) { ev.Fire() }, time.Second, n},
		{"kill", func(_ *Event, procs []*Proc) {
			for _, p := range procs {
				p.Kill(errBoom)
			}
		}, time.Second, 0},
	}
	for _, tc := range cases {
		woke := 0
		c, ev, procs, release := parkedAtOneSecond(t, n, &woke)
		tc.host(ev, procs)
		release()
		if woke != 0 {
			t.Fatalf("%s: %d waiters resumed before Wait", tc.name, woke)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if woke != tc.woke || c.Now() != tc.end {
			t.Errorf("%s: %d waiters resumed and the run ended at %v, want %d and %v",
				tc.name, woke, c.Now(), tc.woke, tc.end)
		}
	}
}

// TestHostCallsTakeEffectInOrder: Go, Fire, Kill and AfterFunc from the
// host run nothing; Wait then delivers them in the order they were made.
func TestHostCallsTakeEffectInOrder(t *testing.T) {
	c := New()
	ev := NewEventNamed(c, "")
	var log []string
	var victim *Proc
	c.Go("a", func(p *Proc) { log = append(log, "a"); ev.Wait(p); log = append(log, "a woke") })
	c.AfterFunc(0, func(time.Duration) { log = append(log, "timer") })
	c.Go("victim", func(p *Proc) { log = append(log, "victim ran") })
	for p := range c.procs {
		if p.name == "victim" {
			victim = p
		}
	}
	victim.Kill(errBoom)
	ev.Fire()
	c.Go("b", func(p *Proc) { log = append(log, "b"); p.Sleep(0); log = append(log, "b woke") })
	if len(log) != 0 {
		t.Fatalf("host calls ran %q before Wait", log)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	// a finds ev already fired; the zero-delay timer fires only once the
	// spawns have run and b sleeps.
	want := []string{"a", "a woke", "b", "timer", "b woke"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order %q, want %q", log, want)
	}
}

// TestWaitFromInsideProcPanics: Wait is the host's; a process or a timer
// callback that calls it would re-enter the loop it is running in.
func TestWaitFromInsideProcPanics(t *testing.T) {
	c := New()
	var fromProc, fromCallback any
	c.Go("p", func(p *Proc) {
		func() {
			defer func() { fromProc = recover() }()
			c.Wait()
		}()
		c.AfterFunc(time.Second, func(time.Duration) {
			defer func() { fromCallback = recover() }()
			c.Wait()
		})
		p.Sleep(time.Minute)
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if fromProc == nil || fromCallback == nil {
		t.Fatalf("Wait inside a proc panicked with %v, inside a callback with %v; want both to panic", fromProc, fromCallback)
	}
}

// TestGoOnDeadlockedClockLeaksNothing: a refused spawn must not leave its
// coroutine behind (the deadlocked procs themselves are leaked, as
// documented, so the baseline is taken after the deadlock).
func TestGoOnDeadlockedClockLeaksNothing(t *testing.T) {
	c := New()
	c.Go("stuck", func(p *Proc) { NewEventNamed(c, "").Wait(p) })
	if err := c.Wait(); err == nil {
		t.Fatal("Wait returned nil for a deadlocked clock")
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Go on a deadlocked clock did not panic")
				}
			}()
			c.Go("late", func(*Proc) { t.Error("a proc ran on a deadlocked clock") })
		}()
	}
	goroutinesSettleTo(t, base, "Go on a deadlocked clock")
}

// TestProcPanicSurfaces: a panic in a proc that is not Killed is not the
// clock's to absorb. It travels from the coroutine to whoever called
// Wait, with its value, where a supervisor can recover it; the clock does
// not advance past the instant of the panic.
func TestProcPanicSurfaces(t *testing.T) {
	c := New()
	c.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	c.Go("faulty", func(p *Proc) {
		p.Sleep(time.Second)
		panic("proc went wrong at " + p.Now().String())
	})
	var got any
	func() {
		defer func() { got = recover() }()
		c.Wait()
	}()
	if got != "proc went wrong at 1s" {
		t.Fatalf("Wait's caller recovered %v, want the proc's panic value", got)
	}
	if c.Now() != time.Second {
		t.Fatalf("clock at %v after the panic, want 1s", c.Now())
	}
}

// countYields wraps p's side of the coroutine so a test can see how many
// times p really gave the processor away.
func countYields(p *Proc, n *int) {
	yield := p.yield
	p.yield = func(v struct{}) bool { *n++; return yield(v) }
}

// TestLoneSleeperKeepsTheProcessor: a proc whose own wakeup is the next
// thing to run does not switch to the driver and back — it keeps running
// and allocates nothing — while two procs that alternate must switch on
// every sleep.
func TestLoneSleeperKeepsTheProcessor(t *testing.T) {
	c := New()
	var yields int
	var allocs float64
	c.Go("lone", func(p *Proc) {
		countYields(p, &yields)
		allocs = testing.AllocsPerRun(200, func() { p.Sleep(time.Microsecond) })
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if yields != 0 || allocs != 0 {
		t.Fatalf("a lone sleeper yielded %d times and allocated %.1f objects per Sleep, want 0 and 0", yields, allocs)
	}

	const sleeps = 50
	var each [2]int
	release := c.Hold()
	for i := range each {
		c.Go("alternating", func(p *Proc) {
			countYields(p, &each[i])
			for j := 0; j < sleeps; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if each != [2]int{sleeps, sleeps} {
		t.Fatalf("alternating sleepers yielded %v times, want %d each", each, sleeps)
	}
}

// TestAllocBudgetSpawn bounds what a process costs to create: the Proc,
// its body closure and the coroutine iter.Pull builds around it (11
// objects on go1.24, where a goroutine and a wake channel were 3). The
// per-rank set-up this buys back is budgeted end to end by
// experiments.TestAllocBudgetFigures.
func TestAllocBudgetSpawn(t *testing.T) {
	c := New()
	release := c.Hold()
	allocs := testing.AllocsPerRun(500, func() { c.Go("p", func(*Proc) {}) })
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs > 16 {
		t.Fatalf("Clock.Go allocates %.1f objects, budget 16", allocs)
	}
	t.Logf("Clock.Go: %.1f allocations", allocs)
}
