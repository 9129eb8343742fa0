package main

import (
	"fmt"
	"time"

	"asyncio/internal/flow"
	"asyncio/internal/hdf5"
	"asyncio/internal/memsys"
	"asyncio/internal/mpi"
	"asyncio/internal/pfs"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
)

const (
	gbPerS    = 1e9
	probeSlab = 32 << 20 // one VPIC-IO property of one rank
)

// The storage and memory probes drive the targets of the evaluation
// machines themselves — the capacity curves, and the metrics registry
// every target of a figure run is instrumented on.
func summitGPFS(clk *vclock.Clock) *pfs.Target  { return systems.Summit(clk, 1).PFS }
func coriLustre(clk *vclock.Clock) *pfs.Target  { return systems.CoriHaswell(clk, 1).PFS }
func summitNode(clk *vclock.Clock) *memsys.Node { return systems.Summit(clk, 1).NodeOf(0) }

// clockProbe runs a schedule on a bare clock and reports host ns (and,
// when allocs is set, allocations) per fired event.
func clockProbe(l *ledger, name string, allocs bool, schedule func(clk *vclock.Clock)) error {
	clk := vclock.New()
	c, err := measure(func() error {
		schedule(clk)
		return clk.Wait()
	})
	if err != nil {
		return err
	}
	l.put("vclock."+name+".ns_per_event", "ns", c.nsPer(int(c.events)))
	if allocs {
		l.put("vclock."+name+".allocs_per_event", "count", c.allocsPer(int(c.events)))
	}
	return nil
}

// collectiveProbe runs rounds of one collective on a 4,096-rank world
// with the default cost model. Rank 0 meters from the end of a first
// barrier, which leaves spawning 4,096 processes out.
func collectiveProbe(l *ledger, name string, allocs bool, collective func(c *mpi.Comm)) error {
	const ranks, rounds = 4096, 12
	clk := vclock.New()
	var c cost
	w := mpi.Run(clk, ranks, mpi.DefaultCosts(), func(cm *mpi.Comm) {
		cm.Barrier()
		var m *meter
		if cm.Rank() == 0 {
			m = startMeter()
		}
		for i := 0; i < rounds; i++ {
			collective(cm)
		}
		if m != nil {
			c = m.stop()
		}
	})
	if err := clk.Wait(); err != nil {
		return err
	}
	if err := w.Err(); err != nil {
		return err
	}
	l.put("mpi."+name+".ns_per_rank", "ns", c.nsPer(ranks*rounds))
	if allocs {
		l.put("mpi."+name+".allocs_per_rank", "count", c.allocsPer(ranks*rounds))
	}
	return nil
}

// targetProbe has 64 ranks move a 32 MB slab each, several rounds, and
// reports host ns per data operation.
func targetProbe(l *ledger, name string, mk func(*vclock.Clock) *pfs.Target, op func(t *pfs.Target, p *vclock.Proc)) error {
	const procs, rounds = 64, 400
	clk := vclock.New()
	t := mk(clk)
	c, err := measure(func() error {
		for i := 0; i < procs; i++ {
			clk.Go(fmt.Sprintf("rank%d", i), func(p *vclock.Proc) {
				for r := 0; r < rounds; r++ {
					op(t, p)
				}
			})
		}
		return clk.Wait()
	})
	if err != nil {
		return err
	}
	l.put("pfs."+name+".ns_per_op", "ns", c.nsPer(procs*rounds))
	return nil
}

func engineProbes() []probe {
	return []probe{
		{"vclock.sleep", func(l *ledger) error {
			// One proc, a chain of sleeps: the Sleep/advance path.
			return clockProbe(l, "sleep", false, func(clk *vclock.Clock) {
				clk.Go("sleeper", func(p *vclock.Proc) {
					for i := 0; i < 600_000; i++ {
						p.Sleep(time.Microsecond)
					}
				})
			})
		}},
		{"vclock.fanout", func(l *ledger) error {
			// 64 procs waking at the same instants: batched wake-ups.
			return clockProbe(l, "fanout", false, func(clk *vclock.Clock) {
				for g := 0; g < 64; g++ {
					clk.Go(fmt.Sprintf("p%d", g), func(p *vclock.Proc) {
						for i := 0; i < 2_000; i++ {
							p.Sleep(time.Microsecond)
						}
					})
				}
			})
		}},
		{"vclock.timers", func(l *ledger) error {
			// Callback timers, half of them cancelled: pooled entries and
			// heap removal.
			return clockProbe(l, "timers", false, func(clk *vclock.Clock) {
				clk.Go("driver", func(p *vclock.Proc) {
					for i := 0; i < 200_000; i++ {
						p.Clock().AfterFunc(time.Microsecond, func(time.Duration) {})
						p.Clock().AfterFunc(time.Millisecond, func(time.Duration) {}).Stop()
						p.Sleep(time.Microsecond)
					}
				})
			})
		}},
		{"vclock.procs4096", func(l *ledger) error {
			// 4,096 procs with staggered periods: every advance wakes a
			// batch of another size, as a wide run does.
			return clockProbe(l, "procs4096", true, func(clk *vclock.Clock) {
				for i := 0; i < 4096; i++ {
					step := time.Duration(1+i%7) * time.Microsecond
					clk.Go(fmt.Sprintf("p%d", i), func(p *vclock.Proc) {
						for k := 0; k < 40; k++ {
							p.Sleep(step)
						}
					})
				}
			})
		}},
		{"mpi.barrier4096", func(l *ledger) error {
			return collectiveProbe(l, "barrier4096", true, func(c *mpi.Comm) { c.Barrier() })
		}},
		{"mpi.allreduce4096", func(l *ledger) error {
			return collectiveProbe(l, "allreduce4096", false, func(c *mpi.Comm) {
				mpi.Allreduce(c, int64(c.Rank()), func(a, b int64) int64 { return a + b })
			})
		}},
		{"mpi.gather4096", func(l *ledger) error {
			return collectiveProbe(l, "gather4096", false, func(c *mpi.Comm) { mpi.Gather(c, c.Rank(), 0) })
		}},
		{"mpi.sendrecv", func(l *ledger) error {
			// Two ranks, a ping-pong of tagged messages.
			const msgs = 40_000
			clk := vclock.New()
			c, err := measure(func() error {
				mpi.Run(clk, 2, mpi.DefaultCosts(), func(cm *mpi.Comm) {
					peer := 1 - cm.Rank()
					for i := 0; i < msgs/2; i++ {
						if cm.Rank() == 0 {
							mpi.Send(cm, peer, 7, i)
							mpi.Recv[int](cm, peer, 7)
						} else {
							mpi.Recv[int](cm, peer, 7)
							mpi.Send(cm, peer, 7, i)
						}
					}
				})
				return clk.Wait()
			})
			if err != nil {
				return err
			}
			l.put("mpi.sendrecv.ns_per_msg", "ns", c.nsPer(msgs))
			return nil
		}},
		{"flow.transfer", func(l *ledger) error {
			// 256 flows with staggered arrivals on one processor-sharing
			// server: every arrival and departure re-rates the rest.
			const flows, rounds = 256, 12
			clk := vclock.New()
			srv := flow.NewServer(clk, flow.LinearCapacity(0.4*gbPerS, 307*gbPerS))
			c, err := measure(func() error {
				for i := 0; i < flows; i++ {
					stagger := time.Duration(i) * time.Millisecond
					clk.Go(fmt.Sprintf("f%d", i), func(p *vclock.Proc) {
						p.Sleep(stagger)
						for r := 0; r < rounds; r++ {
							srv.Transfer(p, probeSlab)
						}
					})
				}
				return clk.Wait()
			})
			if err != nil {
				return err
			}
			l.put("flow.transfer.ns_per_flow", "ns", c.nsPer(flows*rounds))
			l.put("flow.transfer.allocs_per_flow", "count", c.allocsPer(flows*rounds))
			return nil
		}},
		{"pfs.gpfs_write", func(l *ledger) error {
			return targetProbe(l, "gpfs_write", summitGPFS, func(t *pfs.Target, p *vclock.Proc) { t.WriteData(p, probeSlab) })
		}},
		{"pfs.lustre_write", func(l *ledger) error {
			return targetProbe(l, "lustre_write", coriLustre, func(t *pfs.Target, p *vclock.Proc) { t.WriteData(p, probeSlab) })
		}},
		{"pfs.gpfs_read", func(l *ledger) error {
			return targetProbe(l, "gpfs_read", summitGPFS, func(t *pfs.Target, p *vclock.Proc) { t.ReadData(p, probeSlab) })
		}},
		{"pfs.metaop", func(l *ledger) error {
			return targetProbe(l, "metaop", summitGPFS, func(t *pfs.Target, p *vclock.Proc) { t.MetaOp(p) })
		}},
		{"pfs.durable_write_sync", func(l *ledger) error {
			// 64 KiB writes into the GPFS write-back model, a flush barrier
			// after every 16th.
			const writes = 512
			d := pfs.NewDurableStore(hdf5.NewMemStore(), pfs.GPFSDurability(1))
			buf := make([]byte, 64<<10)
			c, err := measure(func() error {
				return onClock(func(p *vclock.Proc) error {
					for i := 0; i < writes; i++ {
						if _, err := d.WriteAt(buf, int64(i)*int64(len(buf))); err != nil {
							return err
						}
						if i%16 == 15 {
							if err := d.SyncOn(p); err != nil {
								return err
							}
						}
					}
					return nil
				})
			})
			if err != nil {
				return err
			}
			l.put("pfs.durable_write_sync.ns_per_op", "ns", c.nsPer(writes))
			return nil
		}},
		{"memsys.memcpy", func(l *ledger) error {
			// Six ranks share one node's copy bandwidth, as on Summit.
			const procs, rounds = 6, 10_000
			clk := vclock.New()
			node := summitNode(clk)
			c, err := measure(func() error {
				for i := 0; i < procs; i++ {
					clk.Go(fmt.Sprintf("rank%d", i), func(p *vclock.Proc) {
						for r := 0; r < rounds; r++ {
							node.Memcpy(p, probeSlab)
						}
					})
				}
				return clk.Wait()
			})
			if err != nil {
				return err
			}
			l.put("memsys.memcpy.ns_per_op", "ns", c.nsPer(procs*rounds))
			return nil
		}},
	}
}
