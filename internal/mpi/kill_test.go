package mpi

import (
	"errors"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

var errCrash = errors.New("injected crash")

// Killing a rank mid-barrier unwinds the victim and releases the
// survivors, which observe the revoked communicator as an abort.
func TestKillReleasesBarrier(t *testing.T) {
	clk := vclock.New()
	reached := make([]bool, 3)
	past := make([]bool, 3)
	w := Run(clk, 3, DefaultCosts(), func(c *Comm) {
		if c.Rank() == 2 {
			// The victim never reaches the barrier; it sleeps and is
			// killed at t=1s.
			c.Proc().Sleep(time.Hour)
			return
		}
		reached[c.Rank()] = true
		c.Barrier()
		past[c.Rank()] = true
	})
	clk.AfterFunc(time.Second, func(now time.Duration) {
		w.Kill(2, errCrash)
	})
	// Two ranks parked in a barrier with a dead third: the abort wakes
	// them, so Wait must terminate.
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); !errors.Is(err, errCrash) {
		t.Fatalf("world error = %v, want %v", err, errCrash)
	}
	for r := 0; r < 2; r++ {
		if !reached[r] {
			t.Errorf("rank %d never reached the barrier", r)
		}
		if past[r] {
			t.Errorf("rank %d passed a barrier with a dead participant", r)
		}
	}
	if !w.Finished() {
		t.Error("Finished() = false after all ranks unwound")
	}
}

// A sleeping victim dies at the kill instant, not at its sleep deadline.
func TestKillInterruptsSleep(t *testing.T) {
	clk := vclock.New()
	var end time.Duration
	w := Run(clk, 2, DefaultCosts(), func(c *Comm) {
		if c.Rank() == 1 {
			c.Proc().Sleep(time.Hour)
			return
		}
		c.Proc().Sleep(2 * time.Second)
		end = c.Proc().Now()
	})
	clk.AfterFunc(time.Second, func(now time.Duration) {
		w.Kill(1, errCrash)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if end != 2*time.Second {
		t.Fatalf("survivor finished at %v, want 2s", end)
	}
	if now := clk.Now(); now != 2*time.Second {
		t.Fatalf("clock = %v; the victim's cancelled 1h sleep should not advance time", now)
	}
}

// Send/Recv with a killed peer: the blocked receiver unwinds via abort.
func TestKillReleasesRecv(t *testing.T) {
	clk := vclock.New()
	got := false
	w := Run(clk, 2, DefaultCosts(), func(c *Comm) {
		if c.Rank() == 0 {
			Recv[int](c, 1, 0) // peer dies before sending
			got = true
			return
		}
		c.Proc().Sleep(time.Hour)
	})
	clk.AfterFunc(time.Second, func(now time.Duration) {
		w.Kill(1, errCrash)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("Recv returned data from a dead peer")
	}
	if err := w.Err(); !errors.Is(err, errCrash) {
		t.Fatalf("world error = %v, want %v", err, errCrash)
	}
}

// Kill after all ranks finished must not mark the world aborted until
// it actually kills someone — the caller guards with Finished.
func TestFinishedAfterCleanRun(t *testing.T) {
	clk := vclock.New()
	w := Run(clk, 2, DefaultCosts(), func(c *Comm) {
		c.Barrier()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if !w.Finished() {
		t.Fatal("Finished() = false after a clean run")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("world error = %v, want nil", err)
	}
}

// Out-of-range kills are rejected quietly (a crash spec can target a
// rank the run does not have).
func TestKillOutOfRange(t *testing.T) {
	clk := vclock.New()
	w := Run(clk, 2, DefaultCosts(), func(c *Comm) {
		c.Proc().Sleep(time.Millisecond)
	})
	w.Kill(7, errCrash)
	w.Kill(-1, errCrash)
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("world error = %v, want nil", err)
	}
}
