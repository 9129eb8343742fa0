package vclock

import (
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// A sleeping process dies at the kill instant: its pending wakeup is
// withdrawn so time does not advance to the original deadline.
func TestKillWakesSleeper(t *testing.T) {
	c := New()
	release := c.Hold() // both procs exist before either runs
	var died error
	var diedAt time.Duration
	var victim *Proc
	ready := NewEventNamed(c, "")
	c.Go("victim", func(p *Proc) {
		victim = p
		defer func() {
			r := recover()
			k, ok := r.(Killed)
			if !ok {
				t.Errorf("recover() = %v, want Killed", r)
				return
			}
			died = k.Reason
			diedAt = p.Now()
		}()
		ready.Fire()
		p.Sleep(time.Hour)
		t.Error("sleep returned on a killed proc")
	})
	c.Go("killer", func(p *Proc) {
		ready.Wait(p)
		p.Sleep(time.Second)
		victim.Kill(errBoom)
	})
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if died != errBoom {
		t.Fatalf("kill reason = %v, want %v", died, errBoom)
	}
	if diedAt != time.Second {
		t.Fatalf("died at %v, want 1s (not the 1h sleep deadline)", diedAt)
	}
	if now := c.Now(); now != time.Second {
		t.Fatalf("clock advanced to %v after kill; the cancelled sleep leaked its timer", now)
	}
}

// A process blocked in Event.Wait dies at the kill instant, and a later
// Fire of the event must not touch the dead waiter.
func TestKillWakesEventWaiter(t *testing.T) {
	c := New()
	release := c.Hold() // both procs exist before either runs
	ev := NewEventNamed(c, "")
	var died error
	var victim *Proc
	started := NewEventNamed(c, "")
	c.Go("victim", func(p *Proc) {
		victim = p
		defer func() {
			if k, ok := recover().(Killed); ok {
				died = k.Reason
			}
		}()
		started.Fire()
		ev.Wait(p)
		t.Error("wait returned on a killed proc")
	})
	c.Go("killer", func(p *Proc) {
		started.Wait(p)
		p.Sleep(time.Millisecond)
		victim.Kill(errBoom)
		p.Sleep(time.Millisecond)
		ev.Fire() // must be safe after the waiter died
	})
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if died != errBoom {
		t.Fatalf("kill reason = %v, want %v", died, errBoom)
	}
}

// A running (not blocked) process dies at its next blocking operation.
func TestKillFlagsRunningProc(t *testing.T) {
	c := New()
	release := c.Hold() // both procs exist before either runs
	var died error
	var victim *Proc
	started := NewEventNamed(c, "")
	resume := NewEventNamed(c, "")
	c.Go("victim", func(p *Proc) {
		victim = p
		defer func() {
			if k, ok := recover().(Killed); ok {
				died = k.Reason
			}
		}()
		started.Fire()
		resume.Wait(p) // killer flags us while we are about to block
		p.Sleep(time.Second)
	})
	c.Go("killer", func(p *Proc) {
		started.Wait(p)
		victim.Kill(errBoom) // victim is blocked on resume: withdrawn immediately
		resume.Fire()
	})
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if died != errBoom {
		t.Fatalf("kill reason = %v, want %v", died, errBoom)
	}
}

// Kill is idempotent: the first reason wins.
func TestKillIdempotent(t *testing.T) {
	c := New()
	release := c.Hold() // both procs exist before either runs
	other := errors.New("other")
	var died error
	var victim *Proc
	started := NewEventNamed(c, "")
	c.Go("victim", func(p *Proc) {
		victim = p
		defer func() {
			if k, ok := recover().(Killed); ok {
				died = k.Reason
			}
		}()
		started.Fire()
		p.Sleep(time.Hour)
	})
	c.Go("killer", func(p *Proc) {
		started.Wait(p)
		victim.Kill(errBoom)
		victim.Kill(other)
	})
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if died != errBoom {
		t.Fatalf("kill reason = %v, want first kill %v", died, errBoom)
	}
}

// Killing a proc that already exited is a harmless no-op.
func TestKillAfterExit(t *testing.T) {
	c := New()
	release := c.Hold() // both procs exist before either runs
	var victim *Proc
	done := NewEventNamed(c, "")
	c.Go("victim", func(p *Proc) {
		victim = p
		done.Fire()
	})
	c.Go("killer", func(p *Proc) {
		done.Wait(p)
		p.Sleep(time.Millisecond)
		victim.Kill(errBoom)
	})
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// An unrecovered Killed panic is absorbed by the Go wrapper — the
// process just ends — and clock accounting stays balanced.
func TestKilledPanicAbsorbed(t *testing.T) {
	c := New()
	release := c.Hold() // both procs exist before either runs
	var victim *Proc
	started := NewEventNamed(c, "")
	c.Go("victim", func(p *Proc) {
		victim = p
		started.Fire()
		p.Sleep(time.Hour) // dies here; no recover in this body
	})
	c.Go("killer", func(p *Proc) {
		started.Wait(p)
		victim.Kill(errBoom)
		p.Sleep(time.Second) // clock must still advance normally
	})
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", c.Now())
	}
}

func TestKilledErrorString(t *testing.T) {
	if got := (Killed{Reason: errBoom}).Error(); got != "vclock: process killed: boom" {
		t.Fatalf("Error() = %q", got)
	}
	if got := (Killed{}).Error(); got != "vclock: process killed" {
		t.Fatalf("Error() = %q", got)
	}
}
