package vclock

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesSettleTo fails unless the goroutine count comes back down to
// base. The coroutines are destroyed synchronously when their bodies
// return, but the driver's own exit trails the Wait it woke by a few
// instructions, hence the short poll.
func goroutinesSettleTo(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want the baseline %d: the driver or a coroutine outlived the run",
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

// TestHostResumesParkedClock: the host takes a Hold while the last
// runnable proc is still running, so afterwards every proc is blocked,
// the clock is pinned at 1s and the driver has nothing to resume. The
// host's release — alone, after firing the event the procs wait on, or
// after killing them — must wake the driver and carry the run to its end.
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
		c := New()
		ev := NewEventNamed(c, "")
		c.AfterFunc(time.Hour, func(time.Duration) { ev.Fire() })
		procs := make([]*Proc, n)
		woke := 0
		ready, held := make(chan struct{}), make(chan struct{})
		c.Go("root", func(p *Proc) {
			for i := range procs {
				c.Go("waiter", func(q *Proc) {
					procs[i] = q
					ev.Wait(q)
					woke++
				})
			}
			p.Sleep(time.Second) // the waiters run, and block
			ready <- struct{}{}
			<-held
		})
		<-ready
		release := c.Hold()
		held <- struct{}{}
		// Give root a moment to exit and the driver to go to sleep; the
		// outcome must be the same if they have not.
		time.Sleep(time.Millisecond)
		tc.host(ev, procs)
		release()
		if err := c.Wait(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if woke != tc.woke || c.Now() != tc.end {
			t.Errorf("%s: %d waiters resumed and the run ended at %v, want %d and %v",
				tc.name, woke, c.Now(), tc.woke, tc.end)
		}
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
// clock's to absorb; it must bring the program down showing its value. It
// travels from the coroutine to the driver, so the test needs a process
// it can lose: it re-runs itself as the child that panics.
func TestProcPanicSurfaces(t *testing.T) {
	if os.Getenv("GO_WANT_HELPER_PROCESS") == "1" {
		c := New()
		release := c.Hold()
		c.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
		c.Go("faulty", func(p *Proc) {
			p.Sleep(time.Second)
			panic("proc went wrong at " + p.Now().String())
		})
		release()
		c.Wait()
		os.Exit(0) // not reached: the panic kills the process
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProcPanicSurfaces$")
	cmd.Env = append(os.Environ(), "GO_WANT_HELPER_PROCESS=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the child survived a panicking proc:\n%s", out)
	}
	if !strings.Contains(string(out), "panic: proc went wrong at 1s") {
		t.Fatalf("the child died without showing the proc's panic value:\n%s", out)
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
