package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/faults"
	"asyncio/internal/hdf5"
	"asyncio/internal/systems"
	"asyncio/internal/taskengine"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

func TestNewStoreSelection(t *testing.T) {
	if _, ok := NewStore(true).(*hdf5.MemStore); !ok {
		t.Fatal("materialized store is not a MemStore")
	}
	if _, ok := NewStore(false).(*hdf5.NullStore); !ok {
		t.Fatal("timing store is not a NullStore")
	}
}

func TestSlab1D(t *testing.T) {
	sp, err := Slab1D(100, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sp.SelectionCount() != 10 {
		t.Fatalf("count = %d", sp.SelectionCount())
	}
	var off uint64
	if err := sp.EachRun(func(o, n uint64) error { off = o; return nil }); err != nil {
		t.Fatal(err)
	}
	if off != 30 {
		t.Fatalf("offset = %d, want 30", off)
	}
	if _, err := Slab1D(100, 30, 3); err == nil {
		t.Fatal("out-of-range slab accepted")
	}
}

// blockOf returns the [start, start+count) a selection covers, or
// (0, 0) for the nil selection of a rank that moves nothing.
func blockOf(t *testing.T, sel *hdf5.Dataspace) (start, count uint64) {
	t.Helper()
	if sel == nil {
		return 0, 0
	}
	runs := 0
	if err := sel.EachRun(func(o, n uint64) error { start, count = o, n; runs++; return nil }); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("selection has %d runs, want one contiguous block", runs)
	}
	return start, count
}

// The blocks of ranks 0..size-1 are disjoint, ordered, cover [0,total)
// exactly once, and are the blocks castro.writeParticles computed
// inline before Block1D existed (eqsim's writer was the same arithmetic
// without the short-dataset guard, which its Run rules out up front).
func TestBlock1D(t *testing.T) {
	for _, tc := range []struct {
		total uint64
		size  int
	}{
		{3, 8},        // 0 < total < size: trailing ranks move nothing
		{1, 2},        // ... including the last rank
		{8, 8},        // total = size
		{4096, 8},     // total ≫ size, no remainder
		{4099, 8},     // total ≫ size, last rank absorbs the remainder
		{100, 1},      // a single rank takes everything
		{16777216, 6}, // Castro's particles (128³ cells × 2 × 4 fields) on one Summit node
	} {
		next := uint64(0)
		for rank := 0; rank < tc.size; rank++ {
			sel, count, err := Block1D(tc.total, rank, tc.size)
			if err != nil {
				t.Fatalf("Block1D(%d, %d, %d): %v", tc.total, rank, tc.size, err)
			}
			start, n := blockOf(t, sel)
			if n != count {
				t.Errorf("Block1D(%d, %d, %d): count %d but the selection holds %d", tc.total, rank, tc.size, count, n)
			}

			// The parent's arithmetic.
			per := tc.total / uint64(tc.size)
			if per == 0 {
				per = 1
			}
			wantStart, wantCount := uint64(rank)*per, per
			if rank == tc.size-1 {
				wantCount = tc.total - wantStart
			}
			if wantStart >= tc.total {
				wantStart, wantCount = 0, 0
			}
			if start != wantStart || count != wantCount {
				t.Errorf("Block1D(%d, %d, %d) = [%d,+%d), parent wrote [%d,+%d)",
					tc.total, rank, tc.size, start, count, wantStart, wantCount)
			}

			if count == 0 {
				if sel != nil {
					t.Errorf("Block1D(%d, %d, %d): empty block with a non-nil selection", tc.total, rank, tc.size)
				}
				continue
			}
			if start != next {
				t.Errorf("Block1D(%d, %d, %d) starts at %d, previous block ended at %d", tc.total, rank, tc.size, start, next)
			}
			next = start + count
		}
		if next != tc.total {
			t.Errorf("total %d over %d ranks: blocks cover [0,%d)", tc.total, tc.size, next)
		}
	}
}

// oneRankEnv runs fn as rank 0 of a one-node Summit with an env over a
// fresh container holding one 64-byte dataset "d".
func oneRankEnv(t *testing.T, materialize bool, fn func(p *vclock.Proc, env *Env, ds func(trace.Mode) vol.Dataset)) *hdf5.File {
	t.Helper()
	clk := vclock.New()
	sys := systems.Summit(clk, 1)
	eng := taskengine.New(clk)
	raw, err := CreateSharedFile(sys, materialize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (vol.Native{}).Wrap(raw).Root().CreateDataset(vol.Props{}, "d", hdf5.U8, hdf5.MustSimple(64), nil); err != nil {
		t.Fatal(err)
	}
	clk.Go("rank", func(p *vclock.Proc) {
		env := NewEnv(&core.RankCtx{P: p, Sys: sys, Rank: 0}, eng, raw, Options{Materialize: materialize})
		fn(p, env, func(mode trace.Mode) vol.Dataset {
			ds, err := env.File(mode).Root().OpenDataset(env.Props(p, mode), "d")
			if err != nil {
				t.Error(err)
			}
			return ds
		})
		if err := env.Term(p); err != nil {
			t.Error(err)
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestEnvWriteRead(t *testing.T) {
	sel, err := Slab1D(64, 16, 2) // elements [32,48)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("materialized", func(t *testing.T) {
		raw := oneRankEnv(t, true, func(p *vclock.Proc, env *Env, open func(trace.Mode) vol.Dataset) {
			pr := env.Props(p, trace.Async)
			fill := func(buf []byte) {
				for i := range buf {
					buf[i] = byte(100 + i)
				}
			}
			if err := env.Write(pr, open(trace.Async), sel, 16, fill); err != nil {
				t.Error(err)
			}
			if err := env.Drain(p); err != nil {
				t.Error(err)
			}
			spr := env.Props(p, trace.Sync)
			got, err := env.Read(spr, open(trace.Sync), sel, 16)
			if err != nil {
				t.Error(err)
			}
			if len(got) != 16 || got[0] != 100 || got[15] != 115 {
				t.Errorf("Read returned %v, want the 16 bytes fill wrote (100..115)", got)
			}
			// A nil fill writes zeros over them.
			if err := env.Write(spr, open(trace.Sync), sel, 16, nil); err != nil {
				t.Error(err)
			}
			if got, err := env.Read(spr, open(trace.Sync), sel, 16); err != nil || !bytes.Equal(got, make([]byte, 16)) {
				t.Errorf("after a nil-fill Write, Read = %v, %v; want 16 zero bytes", got, err)
			}
		})
		// The bytes are in the store, at the selection and nowhere else.
		f, err := hdf5.Open(raw.Store())
		if err != nil {
			t.Fatal(err)
		}
		ds, err := (vol.Native{}).Wrap(f).Root().OpenDataset(vol.Props{}, "d")
		if err != nil {
			t.Fatal(err)
		}
		all := bytes.Repeat([]byte{0xff}, 64)
		if err := ds.Read(vol.Props{}, nil, all); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(all, make([]byte, 64)) {
			t.Errorf("store holds %v after the zero overwrite", all)
		}
	})
	t.Run("discard", func(t *testing.T) {
		oneRankEnv(t, false, func(p *vclock.Proc, env *Env, open func(trace.Mode) vol.Dataset) {
			pr := env.Props(p, trace.Sync)
			ds := open(trace.Sync)
			if got, err := env.Read(pr, ds, sel, 16); got != nil || err != nil {
				t.Errorf("discard Read = %v, %v; want nil, nil", got, err)
			}
			// A closure that captures locals must not cost an allocation
			// on the timing-only path every sweep point runs: Write calls
			// fill, never keeps it.
			rank, step := env.Rank, 3
			bare := testing.AllocsPerRun(50, func() {
				if err := ds.WriteDiscard(pr, sel); err != nil {
					t.Error(err)
				}
			})
			viaEnv := testing.AllocsPerRun(50, func() {
				fill := func(buf []byte) { buf[0] = byte(rank + step) }
				if err := env.Write(pr, ds, sel, 16, fill); err != nil {
					t.Error(err)
				}
			})
			if viaEnv != bare {
				t.Errorf("Env.Write allocates %.1f per call, a bare WriteDiscard %.1f: fill escapes", viaEnv, bare)
			}
		})
	})
}

// syncCountingStore counts durability barriers: a container's Close
// issues exactly one, and closing a closed file issues none.
type syncCountingStore struct {
	*hdf5.MemStore
	syncs atomic.Int32
}

func (s *syncCountingStore) Sync() error {
	s.syncs.Add(1)
	return s.MemStore.Sync()
}

func TestRunSkeleton(t *testing.T) {
	const ranks = 2
	// setup builds a system, a container with one dataset of a byte per
	// rank, and an App whose IO writes the rank's byte through the env
	// it was handed, recording which env each rank saw.
	setup := func(t *testing.T, opts ...systems.Option) (*systems.System, *hdf5.File, *syncCountingStore, App, *[ranks]*Env) {
		sys := systems.Summit(vclock.New(), 1, opts...)
		store := &syncCountingStore{MemStore: hdf5.NewMemStore()}
		raw, err := hdf5.Create(store, hdf5.WithDriver(sys.PFS))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (vol.Native{}).Wrap(raw).Root().CreateDataset(vol.Props{}, "d", hdf5.U8, hdf5.MustSimple(ranks), nil); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var seen [ranks]*Env
		app := App{
			Name:       "skeleton",
			Iterations: 3,
			Compute:    10 * time.Second,
			Mode:       core.ForceAsync,
			Ranks:      ranks,
			Env:        Options{Materialize: true},
			IO: func(ctx *core.RankCtx, env *Env, iter int, mode trace.Mode) (int64, error) {
				mu.Lock()
				if seen[ctx.Rank] != nil && seen[ctx.Rank] != env {
					t.Errorf("rank %d was handed a different env in epoch %d", ctx.Rank, iter)
				}
				seen[ctx.Rank] = env
				mu.Unlock()
				if env.Rank != ctx.Rank {
					t.Errorf("rank %d was handed rank %d's env", ctx.Rank, env.Rank)
				}
				pr := env.Props(ctx.P, mode)
				ds, err := env.File(mode).Root().OpenDataset(pr, "d")
				if err != nil {
					return 0, err
				}
				sel, err := Slab1D(ranks, 1, ctx.Rank)
				if err != nil {
					return 0, err
				}
				fill := func(buf []byte) { buf[0] = byte(10*(iter+1) + ctx.Rank) }
				return 1, env.Write(pr, ds, sel, 1, fill)
			},
		}
		return sys, raw, store, app, &seen
	}

	t.Run("clean run", func(t *testing.T) {
		sys, raw, store, app, seen := setup(t)
		var observed []int
		app.Observe = func(ctx *core.RankCtx, iter int, rec trace.Record) {
			if ctx.Rank != 0 {
				t.Errorf("Observe ran on rank %d", ctx.Rank)
			}
			observed = append(observed, iter)
		}
		rep, err := Run(sys, raw, app)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Aborted || rep.Run.Workload != "skeleton" || rep.Run.Ranks != ranks || len(rep.Run.Records) != 3 {
			t.Fatalf("report: aborted=%v workload=%q ranks=%d epochs=%d", rep.Aborted, rep.Run.Workload, rep.Run.Ranks, len(rep.Run.Records))
		}
		if len(observed) != 3 || observed[0] != 0 || observed[2] != 2 {
			t.Errorf("Observe saw epochs %v, want [0 1 2]", observed)
		}
		if seen[0] == nil || seen[1] == nil || seen[0] == seen[1] {
			t.Errorf("ranks did not each get their own env: %p %p", seen[0], seen[1])
		}
		// Each epoch is the 10 s sleep plus I/O.
		if total := rep.Run.TotalTime(); total < 30*time.Second || total > 40*time.Second {
			t.Errorf("3 epochs of 10 s compute took %v", total)
		}
		// Term drained, then closed the container — once, though both
		// ranks call it.
		if !raw.Closed() {
			t.Error("the container is still open after the run")
		}
		if n := store.syncs.Load(); n != 1 {
			t.Errorf("the store saw %d sync barriers, want the one from the single effective Close", n)
		}
		f, err := hdf5.Open(store.MemStore)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := (vol.Native{}).Wrap(f).Root().OpenDataset(vol.Props{}, "d")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, ranks)
		if err := ds.Read(vol.Props{}, nil, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 30 || got[1] != 31 {
			t.Errorf("dataset holds %v, want the last epoch's [30 31]", got)
		}
	})

	t.Run("crashrank kills the victim's connector", func(t *testing.T) {
		in, err := faults.New("crashrank=1@15s")
		if err != nil {
			t.Fatal(err)
		}
		sys, raw, _, app, _ := setup(t, systems.WithFaults(in))
		rep, err := Run(sys, raw, app)
		if !faults.IsCrash(err) {
			t.Fatalf("Run error = %v, want the injected crash", err)
		}
		if rep == nil || !rep.Aborted || len(rep.Crashes) != 1 || rep.Crashes[0].Ranks[0] != 1 {
			t.Fatalf("report = %+v, want an aborted run with rank 1's crash record", rep)
		}
		if len(rep.Run.Records) != 1 {
			t.Errorf("committed epochs = %d, want 1 (the crash lands in epoch 1's compute phase)", len(rep.Run.Records))
		}
		// The env's crash hook killed rank 1's background stream with the
		// rank. An aborted run tears nothing else down, so what is still
		// parked on the clock is exactly the streams nobody killed: the
		// survivor's, and not the victim's.
		left := fmt.Sprint(sys.Clk.Wait())
		if !strings.Contains(left, "stream:asyncvol:rank0") {
			t.Errorf("the survivor's stream should still be parked on the clock: %s", left)
		}
		if strings.Contains(left, "stream:asyncvol:rank1") {
			t.Errorf("the victim's background stream outlived its rank: %s", left)
		}
	})
}

func TestEnvModeSwitching(t *testing.T) {
	clk := vclock.New()
	sys := systems.Summit(clk, 1)
	eng := taskengine.New(clk)
	raw, err := CreateSharedFile(sys, true)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	clk.Go("rank", func(p *vclock.Proc) {
		defer close(done)
		ctx := &core.RankCtx{P: p, Sys: sys, Rank: 0}
		env := NewEnv(ctx, eng, raw, Options{Materialize: true})
		if env.File(trace.Sync) == env.File(trace.Async) {
			t.Error("modes must map to distinct connector wrappers")
		}
		if env.Props(p, trace.Async).Set == nil {
			t.Error("async props must carry the event set")
		}
		if env.Props(p, trace.Sync).Set != nil {
			t.Error("sync props must not carry an event set")
		}
		// Write through async, drain, read back through sync.
		pr := env.Props(p, trace.Async)
		ds, err := env.File(trace.Async).Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(8), nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := ds.Write(pr, nil, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Error(err)
		}
		if err := env.Drain(p); err != nil {
			t.Error(err)
		}
		sds, err := env.File(trace.Sync).Root().OpenDataset(env.Props(p, trace.Sync), "d")
		if err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, 8)
		if err := sds.Read(env.Props(p, trace.Sync), nil, out); err != nil {
			t.Error(err)
		}
		if out[7] != 8 {
			t.Errorf("readback = %v", out)
		}
		if err := env.Term(p); err != nil {
			t.Error(err)
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestEnvStagingOptions(t *testing.T) {
	clk := vclock.New()
	sys := systems.Summit(clk, 1)
	eng := taskengine.New(clk)
	raw, err := CreateSharedFile(sys, false)
	if err != nil {
		t.Fatal(err)
	}
	// Each option combination must construct without panicking and give
	// a usable env. The host spawns one stream per env in a loop: hold
	// the clock, or the first stream parking on its empty queue looks
	// like a deadlock before the next is created.
	release := clk.Hold()
	for _, opts := range []Options{
		{},
		{GPU: true},
		{GPU: true, Pinned: true},
		{SSD: true},
		{ZeroCopy: true},
	} {
		ctx := &core.RankCtx{Sys: sys, Rank: 0}
		env := NewEnv(ctx, eng, raw, opts)
		if env.Conn == nil || env.AsyncFile == nil || env.SyncFile == nil {
			t.Fatalf("env incomplete for %+v", opts)
		}
		env.Conn.Shutdown()
	}
	release()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}
