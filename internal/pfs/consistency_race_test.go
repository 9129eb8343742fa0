package pfs

import (
	"fmt"
	"testing"
	"time"

	"asyncio/internal/ioreq"
	"asyncio/internal/vclock"
)

// TestCheckerRecorderConcurrency4096 drives one Consistency's recorder
// from 4096 ranks interleaving on one clock — the sweep's largest scale
// point — mixing writes, reads, and every publish point, then runs the
// oracle over the result. The recorder takes no lock: the ranks are
// coroutines of the goroutine that calls Wait, and under `-race` this is
// the proof that a switch between them orders their accesses to the
// event log; without it, it is still a useful smoke test that
// interleaved recording neither drops nor duplicates events.
func TestCheckerRecorderConcurrency4096(t *testing.T) {
	const ranks = 4096
	writesPerRank := 4
	if raceEnabled {
		writesPerRank = 2
	}

	for _, model := range []Model{ModelPOSIX, ModelSession, ModelMPIIO, ModelCommit} {
		t.Run(string(model), func(t *testing.T) {
			sp, err := ParseConsistency(string(model) + ";check=1")
			if err != nil {
				t.Fatal(err)
			}
			c := NewConsistency(sp)
			clk := vclock.New()
			for rank := 0; rank < ranks; rank++ {
				clk.Go(fmt.Sprintf("rank%d", rank), func(p *vclock.Proc) {
					st := c.Stage(rank)
					for i := 0; i < writesPerRank; i++ {
						op := ioreq.OpWrite
						if i%2 == 1 {
							op = ioreq.OpRead
						}
						// Nil Proc: charges are skipped but the recorder path
						// is fully exercised; the yield lets every other rank
						// in between two operations of this one.
						req := &ioreq.Request{Op: op, Buf: make([]byte, 32)}
						if err := st.Process(req, func(*ioreq.Request) error { return nil }); err != nil {
							t.Error(err)
							return
						}
						p.Sleep(0)
					}
					c.RankSync(nil, rank)
					p.Sleep(0)
					c.RankClose(nil, rank)
					if rank == 0 {
						c.Commit(nil, 0)
					}
				})
			}
			if err := clk.Wait(); err != nil {
				t.Fatal(err)
			}

			want := fmt.Sprintf("consistency=%s writes=%d reads=%d syncs=%d closes=%d commits=1 lastCommit=0s",
				model, ranks*(writesPerRank-writesPerRank/2), ranks*(writesPerRank/2), ranks, ranks)
			if got := c.Checker().Summary(); got != want {
				t.Errorf("summary after interleaved recording:\n got %s\nwant %s", got, want)
			}
			// The synthetic requests carry no dataset, so the oracle has
			// no extents to cross-check; Check must still traverse the
			// full log without fault.
			if err := c.Checker().Check(); err != nil {
				t.Errorf("oracle over interleaved log: %v", err)
			}
		})
	}
}

// TestCheckerRecorderConcurrentPublish drives the publish bookkeeping
// (the unpublished-rank map) from many ranks of one clock; the map is
// the only mutable aggregate shared across ranks.
func TestCheckerRecorderConcurrentPublish(t *testing.T) {
	sp, err := ParseConsistency("commit;check=1")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConsistency(sp)
	clk := vclock.New()
	for rank := 0; rank < 512; rank++ {
		clk.Go(fmt.Sprintf("rank%d", rank), func(p *vclock.Proc) {
			st := c.Stage(rank)
			req := &ioreq.Request{Op: ioreq.OpWrite, Buf: make([]byte, 8)}
			if err := st.Process(req, func(*ioreq.Request) error { return nil }); err != nil {
				t.Error(err)
			}
			p.Sleep(0)
			c.Commit(nil, rank)
		})
	}
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Checker().LastCommit(); !ok || got != time.Duration(0) {
		t.Errorf("LastCommit = %v, %v; want 0s, true", got, ok)
	}
}
