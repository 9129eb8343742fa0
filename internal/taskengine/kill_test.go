package taskengine

import (
	"errors"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

var errKill = errors.New("node crash")

// Kill completes queued tasks with the kill reason so waiters unwind
// instead of hanging, and the in-flight task dies mid-run.
func TestStreamKillFailsQueuedTasks(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	ran := 0
	first := s.Push("long", nil, func(p *vclock.Proc) error {
		ran++
		p.Sleep(time.Hour) // killed mid-sleep
		ran++
		return nil
	})
	second := s.Push("queued", nil, func(p *vclock.Proc) error {
		ran++
		return nil
	})
	var errs [2]error
	clk.Go("waiter", func(p *vclock.Proc) {
		p.Sleep(time.Second)
		s.Kill(errKill)
		errs[0] = first.Wait(p)
		errs[1] = second.Wait(p)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (first task started, nothing after the kill)", ran)
	}
	for i, err := range errs {
		if !errors.Is(err, errKill) {
			t.Errorf("task %d error = %v, want %v", i, err, errKill)
		}
	}
}

// Push after Kill fails the task with the kill reason instead of the
// lifecycle panic: a crashed rank may still issue operations before it
// reaches its next blocking point.
func TestPushAfterKillFailsTask(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	s.Kill(errKill)
	task := s.Push("late", nil, func(p *vclock.Proc) error { return nil })
	var err error
	clk.Go("waiter", func(p *vclock.Proc) {
		err = task.Wait(p)
	})
	if werr := clk.Wait(); werr != nil {
		t.Fatal(werr)
	}
	if !errors.Is(err, errKill) {
		t.Fatalf("late push error = %v, want %v", err, errKill)
	}
}

// Kill is idempotent and Push after Shutdown still panics (the
// lifecycle bug remains a bug).
func TestKillIdempotentAndShutdownStillPanics(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	s := e.NewStream("bg")
	s.Kill(errKill)
	s.Kill(errors.New("other"))
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}

	clk2 := newHeldClock()
	s2 := New(clk2.Clock).NewStream("bg2")
	s2.Shutdown()
	if err := clk2.Wait(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Push after Shutdown did not panic")
		}
	}()
	s2.Push("late", nil, func(p *vclock.Proc) error { return nil })
}

// After Kill, the engine's other streams keep working.
func TestKillIsolatedToOneStream(t *testing.T) {
	clk := newHeldClock()
	e := New(clk.Clock)
	dead := e.NewStream("dead")
	live := e.NewStream("live")
	dead.Kill(errKill)
	ok := false
	task := live.Push("work", nil, func(p *vclock.Proc) error {
		ok = true
		return nil
	})
	clk.Go("waiter", func(p *vclock.Proc) {
		if err := task.Wait(p); err != nil {
			t.Errorf("live stream task failed: %v", err)
		}
	})
	live.Shutdown()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("live stream task never ran")
	}
}
