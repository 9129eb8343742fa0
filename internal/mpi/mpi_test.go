package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

func runWorld(t *testing.T, size int, fn func(c *Comm)) *World {
	t.Helper()
	clk := vclock.New()
	w := Run(clk, size, DefaultCosts(), fn)
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRankAndSize(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	runWorld(t, 5, func(c *Comm) {
		if c.Size() != 5 {
			t.Errorf("Size = %d, want 5", c.Size())
		}
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
	})
	for r := 0; r < 5; r++ {
		if !seen[r] {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestBarrierSynchronizesTime(t *testing.T) {
	var mu sync.Mutex
	var after []time.Duration
	runWorld(t, 4, func(c *Comm) {
		// Rank r sleeps r seconds; after the barrier all ranks must be at
		// >= 3s (the slowest arrival).
		c.Proc().Sleep(time.Duration(c.Rank()) * time.Second)
		c.Barrier()
		mu.Lock()
		after = append(after, c.Proc().Now())
		mu.Unlock()
	})
	for _, ts := range after {
		if ts < 3*time.Second {
			t.Errorf("rank left barrier at %v, before slowest arrival 3s", ts)
		}
	}
}

func TestBcast(t *testing.T) {
	runWorld(t, 6, func(c *Comm) {
		v := -1
		if c.Rank() == 2 {
			v = 42
		}
		got := Bcast(c, v, 2)
		if got != 42 {
			t.Errorf("rank %d: Bcast = %d, want 42", c.Rank(), got)
		}
	})
}

func TestAllreduceMax(t *testing.T) {
	runWorld(t, 7, func(c *Comm) {
		got := Allreduce(c, float64(c.Rank()), func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
		if got != 6 {
			t.Errorf("Allreduce max = %v, want 6", got)
		}
	})
}

func TestGatherOrdering(t *testing.T) {
	runWorld(t, 5, func(c *Comm) {
		got := Gather(c, c.Rank()*10, 3)
		if c.Rank() != 3 {
			if got != nil {
				t.Errorf("rank %d: Gather = %v, want nil", c.Rank(), got)
			}
			return
		}
		for i, v := range got {
			if v != i*10 {
				t.Errorf("Gather[%d] = %d, want %d", i, v, i*10)
			}
		}
	})
}

func TestSendRecvOrdered(t *testing.T) {
	runWorld(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				Send(c, 1, 7, i)
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := Recv[int](c, 0, 7); got != i {
					t.Errorf("Recv #%d = %d", i, got)
				}
			}
		}
	})
}

func TestRecvBlocksUntilSend(t *testing.T) {
	runWorld(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Proc().Sleep(5 * time.Second)
			Send(c, 1, 0, "late")
		} else {
			got := Recv[string](c, 0, 0)
			if got != "late" {
				t.Errorf("Recv = %q", got)
			}
			if c.Proc().Now() < 5*time.Second {
				t.Errorf("Recv returned at %v, before send at 5s", c.Proc().Now())
			}
		}
	})
}

func TestTagsSeparateStreams(t *testing.T) {
	runWorld(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 1, "one")
			Send(c, 1, 2, "two")
		} else {
			// Receive in the opposite tag order.
			if got := Recv[string](c, 0, 2); got != "two" {
				t.Errorf("tag 2 = %q", got)
			}
			if got := Recv[string](c, 0, 1); got != "one" {
				t.Errorf("tag 1 = %q", got)
			}
		}
	})
}

func TestMultipleSequentialCollectives(t *testing.T) {
	runWorld(t, 3, func(c *Comm) {
		for i := 0; i < 20; i++ {
			sum := Allreduce(c, i, func(a, b int) int { return a + b })
			if sum != 3*i {
				t.Fatalf("iteration %d: Allreduce = %d, want %d", i, sum, 3*i)
			}
		}
	})
}

func TestAbortErrPropagates(t *testing.T) {
	clk := vclock.New()
	sentinel := errors.New("boom")
	w := Run(clk, 3, DefaultCosts(), func(c *Comm) {
		if c.Rank() == 1 {
			c.Abort(sentinel)
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); !errors.Is(err, sentinel) {
		t.Fatalf("Err = %v, want wrapped sentinel", err)
	}
}

func TestSingleRankWorld(t *testing.T) {
	runWorld(t, 1, func(c *Comm) {
		c.Barrier()
		if got := Allreduce(c, 9, func(a, b int) int { return a + b }); got != 9 {
			t.Errorf("Allreduce single = %d", got)
		}
		if got := Bcast(c, "x", 0); got != "x" {
			t.Errorf("Bcast single = %q", got)
		}
	})
}

func TestCollectiveLatencyCharged(t *testing.T) {
	clk := vclock.New()
	costs := Costs{CollectiveLatency: time.Millisecond}
	var end time.Duration
	var mu sync.Mutex
	Run(clk, 8, costs, func(c *Comm) {
		c.Barrier() // log2(8)=3 hops -> 3ms
		mu.Lock()
		if c.Proc().Now() > end {
			end = c.Proc().Now()
		}
		mu.Unlock()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if end != 3*time.Millisecond {
		t.Fatalf("barrier cost = %v, want 3ms", end)
	}
}

func TestLargeWorldBarrierScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large world")
	}
	clk := vclock.New()
	w := Run(clk, 2048, DefaultCosts(), func(c *Comm) {
		for i := 0; i < 3; i++ {
			c.Barrier()
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}
