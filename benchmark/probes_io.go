package main

import (
	"fmt"
	"time"

	"asyncio/internal/asyncvol"
	"asyncio/internal/btree"
	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
	"asyncio/internal/taskengine"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
	"asyncio/internal/workloads/harness"
)

// slabs cuts a 1-D extent of n×per elements into its n contiguous
// hyperslabs, the shape of every rank's share in the I/O kernels.
func slabs(n int, per uint64) ([]*hdf5.Dataspace, error) {
	out := make([]*hdf5.Dataspace, n)
	for i := range out {
		sp, err := harness.Slab1D(uint64(n)*per, per, i)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// nullDataset is a float32 dataset of n slabs on a store that discards
// bytes and a file without a driver, so nothing below the layer under
// test charges time.
func nullDataset(n int, per uint64) (*hdf5.File, *hdf5.Dataset, []*hdf5.Dataspace, error) {
	f, err := hdf5.Create(hdf5.NewNullStore())
	if err != nil {
		return nil, nil, nil, err
	}
	ds, err := f.Root().CreateDataset(nil, "x", hdf5.F32, hdf5.MustSimple(uint64(n)*per), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	sl, err := slabs(n, per)
	return f, ds, sl, err
}

// pipelineProbe pushes discard-writes of adjacent slabs through a
// request pipeline and returns the cost of all of them, flush included.
func pipelineProbe(pl func() *ioreq.Pipeline, reqs int) (cost, error) {
	const n = 64
	_, ds, sl, err := nullDataset(n, 1<<20)
	if err != nil {
		return cost{}, err
	}
	pipeline := pl()
	return measure(func() error {
		return onClock(func(p *vclock.Proc) error {
			for i := 0; i < reqs; i++ {
				req := &ioreq.Request{Op: ioreq.OpWriteNull, Dataset: ds, Space: sl[i%n], Proc: p}
				if err := pipeline.Do(req); err != nil {
					return err
				}
			}
			return pipeline.Flush(p)
		})
	})
}

// materialized is a byte dataset of n 64 KiB slabs on a memory store, so
// the hdf5 probes move real bytes.
func materialized(n int, props *hdf5.CreateProps) (*hdf5.Dataset, []*hdf5.Dataspace, error) {
	const per = 64 << 10
	f, err := hdf5.Create(hdf5.NewMemStore())
	if err != nil {
		return nil, nil, err
	}
	ds, err := f.Root().CreateDataset(nil, "x", hdf5.U8, hdf5.MustSimple(uint64(n)*per), props)
	if err != nil {
		return nil, nil, err
	}
	sl, err := slabs(n, per)
	return ds, sl, err
}

func ioProbes() []probe {
	return []probe{
		{"taskengine.push_wait", func(l *ledger) error {
			// One stream, one task at a time: push, run, wake the waiter.
			const tasks = 30_000
			clk := vclock.New()
			eng := taskengine.New(clk)
			var c cost
			var terr error
			clk.Go("app", func(p *vclock.Proc) {
				st := eng.NewStream("bg")
				m := startMeter()
				for i := 0; i < tasks; i++ {
					t := st.Push("t", nil, func(q *vclock.Proc) error { q.Sleep(time.Microsecond); return nil })
					if err := t.Wait(p); err != nil {
						terr = err
						break
					}
				}
				c = m.stop()
				st.Shutdown()
			})
			if err := clk.Wait(); err != nil {
				return err
			}
			l.put("taskengine.push_wait.ns_per_task", "ns", c.nsPer(tasks))
			l.put("taskengine.push_wait.allocs_per_task", "count", c.allocsPer(tasks))
			return terr
		}},
		{"asyncvol.write", func(l *ledger) error {
			// The async write path in its two halves. The staging copy is
			// charged no virtual time, so all submissions happen at one
			// instant before the background stream runs: enqueue is pure
			// submission cost, drain is background execution through the
			// GPFS write flows.
			const writes = 20_000
			clk := vclock.New()
			// The connector's idle stream must not look like a deadlock
			// before the application process exists.
			release := clk.Hold()
			defer release()
			conn := asyncvol.New(taskengine.New(clk), "rank0", asyncvol.Options{
				Copy: asyncvol.CopyFunc(func(*vclock.Proc, int64) {}),
			})
			raw, err := hdf5.Create(hdf5.NewNullStore(), hdf5.WithDriver(summitGPFS(clk)))
			if err != nil {
				return err
			}
			sl, err := slabs(64, 8<<20)
			if err != nil {
				return err
			}
			f := conn.Wrap(raw)
			var enqueue, drain cost
			var werr error
			clk.Go("app", func(p *vclock.Proc) {
				defer conn.Shutdown()
				pr := vol.Props{Proc: p}
				ds, err := f.Root().CreateDataset(pr, "x", hdf5.F32, hdf5.MustSimple(64*(8<<20)), nil)
				if err != nil {
					werr = err
					return
				}
				es := asyncvol.NewEventSet()
				m := startMeter()
				for i := 0; i < writes && werr == nil; i++ {
					werr = ds.WriteDiscard(vol.Props{Proc: p, Set: es}, sl[i%len(sl)])
				}
				enqueue = m.stop()
				m = startMeter()
				if err := es.Wait(p); err != nil && werr == nil {
					werr = err
				}
				if err := conn.Drain(p); err != nil && werr == nil {
					werr = err
				}
				drain = m.stop()
				if err := f.Close(pr); err != nil && werr == nil {
					werr = err
				}
			})
			release()
			if err := clk.Wait(); err != nil {
				return err
			}
			l.put("asyncvol.write_enqueue.ns_per_op", "ns", enqueue.nsPer(writes))
			l.put("asyncvol.write_drain.ns_per_op", "ns", drain.nsPer(writes))
			l.put("asyncvol.write.allocs_per_op", "count", float64(enqueue.mallocs+drain.mallocs)/writes)
			return werr
		}},
		{"asyncvol.prefetch_read", func(l *ledger) error {
			// Prefetch a slab, compute long enough for the background read
			// to land, then read it from staging: BD-CATS-IO's steady state.
			const rounds = 10_000
			clk := vclock.New()
			release := clk.Hold()
			defer release()
			node := summitNode(clk)
			conn := asyncvol.New(taskengine.New(clk), "rank0", asyncvol.Options{
				Copy: asyncvol.CopyFunc(func(p *vclock.Proc, n int64) { node.Memcpy(p, n) }),
			})
			raw, err := hdf5.Create(hdf5.NewNullStore(), hdf5.WithDriver(summitGPFS(clk)))
			if err != nil {
				return err
			}
			sl, err := slabs(64, 8<<20)
			if err != nil {
				return err
			}
			f := conn.Wrap(raw)
			var c cost
			var rerr error
			clk.Go("app", func(p *vclock.Proc) {
				defer conn.Shutdown()
				pr := vol.Props{Proc: p}
				ds, err := f.Root().CreateDataset(pr, "x", hdf5.F32, hdf5.MustSimple(64*(8<<20)), nil)
				if err != nil {
					rerr = err
					return
				}
				m := startMeter()
				for i := 0; i < rounds && rerr == nil; i++ {
					sp := sl[i%len(sl)]
					if rerr = ds.Prefetch(pr, sp); rerr != nil {
						break
					}
					p.Sleep(time.Second)
					rerr = ds.ReadDiscard(pr, sp)
				}
				c = m.stop()
				if err := f.Close(pr); err != nil && rerr == nil {
					rerr = err
				}
			})
			release()
			if err := clk.Wait(); err != nil {
				return err
			}
			l.put("asyncvol.prefetch_read.ns_per_op", "ns", c.nsPer(rounds))
			return rerr
		}},
		{"hdf5.contig", func(l *ledger) error {
			// 64 KiB writes then reads of a contiguous byte dataset held
			// in memory: selection walk, extent lookup and the byte copy.
			const n, passes = 256, 8
			ds, sl, err := materialized(n, nil)
			if err != nil {
				return err
			}
			buf := make([]byte, 64<<10)
			w, err := measure(func() error {
				for i := 0; i < n*passes; i++ {
					if err := ds.Write(nil, sl[i%n], buf); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			r, err := measure(func() error {
				for i := 0; i < n*passes; i++ {
					if err := ds.Read(nil, sl[i%n], buf); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			l.put("hdf5.write_contig.ns_per_op", "ns", w.nsPer(n*passes))
			l.put("hdf5.write_contig.allocs_per_op", "count", w.allocsPer(n*passes))
			l.put("hdf5.write_contig.mb_per_s", "MB/s", w.mbPerS(int64(n*passes*len(buf))))
			l.put("hdf5.read_contig.ns_per_op", "ns", r.nsPer(n*passes))
			return nil
		}},
		{"hdf5.write_chunked", func(l *ledger) error {
			// First writes into a chunked dataset on a store that discards
			// bytes, as the timing runs do: each 64 KiB write allocates four
			// 16 KiB chunks and indexes them in the dataset's B+tree.
			const n, per = 8192, 64 << 10
			f, err := hdf5.Create(hdf5.NewNullStore())
			if err != nil {
				return err
			}
			ds, err := f.Root().CreateDataset(nil, "x", hdf5.U8, hdf5.MustSimple(n*per),
				&hdf5.CreateProps{ChunkDims: []uint64{16 << 10}})
			if err != nil {
				return err
			}
			sl, err := slabs(n, per)
			if err != nil {
				return err
			}
			c, err := measure(func() error {
				for i := 0; i < n; i++ {
					if err := ds.WriteNull(nil, sl[i]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			l.put("hdf5.write_chunked.ns_per_op", "ns", c.nsPer(n))
			return nil
		}},
		{"hdf5.create_dataset", func(l *ledger) error {
			// Many datasets in one group, as the AMReX-style plotfiles of
			// castro create them: object header, link-table insert.
			const n = 20_000
			f, err := hdf5.Create(hdf5.NewNullStore())
			if err != nil {
				return err
			}
			g, err := f.Root().CreateGroup(nil, "level_0")
			if err != nil {
				return err
			}
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("data:datatype=%d", i)
			}
			space := hdf5.MustSimple(1 << 20)
			c, err := measure(func() error {
				for _, name := range names {
					if _, err := g.CreateDataset(nil, name, hdf5.F64, space, nil); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			l.put("hdf5.create_dataset.ns_per_op", "ns", c.nsPer(n))
			return nil
		}},
		{"btree.insert", func(l *ledger) error {
			// Pseudo-random keys into a tree of the chunk index's order.
			const n = 200_000
			t := btree.New[uint64, uint64](64, func(a, b uint64) bool { return a < b })
			c, _ := measure(func() error {
				key := uint64(1)
				for i := 0; i < n; i++ {
					key = key*6364136223846793005 + 1442695040888963407
					t.Put(key, uint64(i))
				}
				return nil
			})
			if t.Len() != n {
				return fmt.Errorf("btree holds %d keys, want %d", t.Len(), n)
			}
			l.put("btree.insert.ns_per_op", "ns", c.nsPer(n))
			return nil
		}},
		{"ioreq.pipeline", func(l *ledger) error {
			// validate → resolve → execute, nothing interposed.
			const reqs = 400_000
			c, err := pipelineProbe(func() *ioreq.Pipeline { return ioreq.New() }, reqs)
			if err != nil {
				return err
			}
			l.put("ioreq.pipeline.ns_per_req", "ns", c.nsPer(reqs))
			l.put("ioreq.pipeline.allocs_per_req", "count", c.allocsPer(reqs))
			return nil
		}},
		{"ioreq.agg", func(l *ledger) error {
			// Adjacent slabs coalesce eight at a time.
			const reqs = 100_000
			c, err := pipelineProbe(func() *ioreq.Pipeline {
				return ioreq.New(ioreq.NewAgg(ioreq.AggConfig{MaxRequests: 8}))
			}, reqs)
			if err != nil {
				return err
			}
			l.put("ioreq.agg.ns_per_req", "ns", c.nsPer(reqs))
			return nil
		}},
		{"ioreq.retry_clean", func(l *ledger) error {
			// A retry stage that never sees an error: what a faulted run
			// pays on every request that succeeds first time.
			const reqs = 100_000
			c, err := pipelineProbe(func() *ioreq.Pipeline {
				return ioreq.New(ioreq.NewRetry(ioreq.RetryPolicy{
					MaxAttempts: 8, Backoff: time.Millisecond, Retryable: func(error) bool { return true },
				}))
			}, reqs)
			if err != nil {
				return err
			}
			l.put("ioreq.retry_clean.ns_per_req", "ns", c.nsPer(reqs))
			return nil
		}},
		{"vol.native_write", func(l *ledger) error {
			// The synchronous connector: a discard-write through the vol
			// interfaces down to the request pipeline.
			const n, writes = 64, 400_000
			raw, _, sl, err := nullDataset(n, 1<<20)
			if err != nil {
				return err
			}
			f := vol.Native{}.Wrap(raw)
			c, err := measure(func() error {
				return onClock(func(p *vclock.Proc) error {
					pr := vol.Props{Proc: p}
					ds, err := f.Root().OpenDataset(pr, "x")
					if err != nil {
						return err
					}
					for i := 0; i < writes; i++ {
						if err := ds.WriteDiscard(pr, sl[i%n]); err != nil {
							return err
						}
					}
					return nil
				})
			})
			if err != nil {
				return err
			}
			l.put("vol.native_write.ns_per_op", "ns", c.nsPer(writes))
			return nil
		}},
	}
}
