// Package systems assembles the two evaluation machines from the paper
// (§IV-A) out of the memsys and pfs models:
//
//   - Summit (OLCF): 4,608 nodes, 2×22-core POWER9 + 6 V100 per node,
//     NVLink 2.0, 1.6 TB node-local NVMe, IBM Spectrum Scale (GPFS)
//     storage with 2.5 TB/s peak. Experiments run 6 ranks/node.
//   - Cori-Haswell (NERSC): Cray XC40, 32 ranks/node, Lustre scratch
//     with 700 GB/s peak (72 OSTs at NERSC's stripe_large best
//     practice) and an SSD burst buffer at 1.7 TB/s.
//
// Absolute bandwidth constants are calibrated so the *shapes* of the
// paper's figures reproduce: the synchronous VPIC-IO knee at 768 ranks
// (128 nodes) on Summit and 1024 ranks (32 nodes) on Cori, strong-
// scaling decay of synchronous aggregate bandwidth, and linear scaling
// of asynchronous (staging-copy) bandwidth.
package systems

import (
	"fmt"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/faults"
	"asyncio/internal/memsys"
	"asyncio/internal/metrics"
	"asyncio/internal/pfs"
	"asyncio/internal/vclock"
)

// Handy byte-rate units.
const (
	KB = 1e3
	MB = 1e6
	GB = 1e9
	TB = 1e12
)

// System is one assembled machine.
type System struct {
	Name         string
	Clk          *vclock.Clock
	Machine      *memsys.Machine
	PFS          *pfs.Target
	BurstBuffer  *pfs.Target // nil when the machine has none
	RanksPerNode int
	MaxNodes     int // full-machine node count, for documentation
	// Metrics is the run's observability registry on the system clock.
	// Storage targets are pre-instrumented; core.Run wires the MPI
	// layer and workloads wire connectors/engines through it. Build the
	// system WithSeries (or call Metrics.EnableSeries() before the run)
	// to record time series.
	Metrics *metrics.Registry
	// Faults is the run's fault injector, attached to the storage
	// targets at construction; nil for healthy runs. Workloads wire it
	// into their connectors (see workloads/harness) and core inherits
	// its degradation policy.
	Faults *faults.Injector
	// Crit is the causal critical-path recorder when the system was built
	// with WithCritPath; nil disables profiling (every call site records
	// through it unconditionally — the recorder is nil-safe).
	Crit *critpath.Recorder
	// Consistency is the PFS consistency model when the system was built
	// with WithConsistency; nil runs the historical implicit model (no
	// visibility charges, no checker). Workloads thread its stage into
	// their request pipelines and call its publish points; every call
	// site is nil-safe.
	Consistency *pfs.Consistency
	// RunObserver, when the system was built with WithRunObserver,
	// receives the *core.Report of the run executed on this system as
	// core.Run returns — complete or aborted. It is typed any because
	// core imports this package.
	RunObserver func(report any)
}

// Option tweaks a System during construction.
type Option func(*config)

type config struct {
	contentionSeed int64
	day            int64
	contention     bool
	faults         *faults.Injector
	crit           *critpath.Recorder
	consistency    *pfs.Consistency
	series         bool
	runObserver    func(report any)
}

// WithContention enables day-to-day backend contention, deterministic in
// seed and day. Without it the backend runs at full capacity (the
// "ideal observed synchronous I/O" the paper's model targets).
func WithContention(seed, day int64) Option {
	return func(c *config) {
		c.contention = true
		c.contentionSeed = seed
		c.day = day
	}
}

// WithFaults attaches a fault injector to the system: its schedule is
// installed on every storage target and its slowdown windows are
// scheduled on the clock. One injector serves one system/run.
func WithFaults(in *faults.Injector) Option {
	return func(c *config) { c.faults = in }
}

// WithCritPath attaches a causal critical-path recorder: the clock
// reports blocking waits into its wait-for graph, the storage targets
// and fault injector record typed causal edges, and core.Run seals the
// profile into the Report. One recorder serves one system/run.
func WithCritPath(rec *critpath.Recorder) Option {
	return func(c *config) { c.crit = rec }
}

// WithConsistency attaches a PFS consistency model to the system: the
// workload pipelines charge its per-write visibility cost, its publish
// points fire at close/sync/commit, and (when the spec enables it) its
// checker records every operation for the visibility oracle. One
// Consistency serves one system/run.
func WithConsistency(cs *pfs.Consistency) Option {
	return func(c *config) { c.consistency = cs }
}

// WithSeries(true) records change-point series in the system's metrics
// registry from its creation on, so the storage targets' setup-time
// gauge writes are part of the exported series too.
func WithSeries(on bool) Option {
	return func(c *config) { c.series = on }
}

// WithRunObserver hands the report of the run executed on this system
// to fn (see System.RunObserver).
func WithRunObserver(fn func(report any)) Option {
	return func(c *config) { c.runObserver = fn }
}

// Summit builds a Summit allocation of the given node count.
func Summit(clk *vclock.Clock, nodes int, opts ...Option) *System {
	const ranksPerNode = 6
	if nodes <= 0 || nodes > 4608 {
		panic(fmt.Sprintf("systems: Summit allocation %d nodes outside 1..4608", nodes))
	}
	cfg := apply(opts)
	machine := memsys.NewMachine(clk, nodes, ranksPerNode, memsys.NodeConfig{
		MemcpyPeak:        24 * GB,  // per-node DRAM copy bandwidth shared by 6 ranks
		MemcpyRamp:        64 << 10, // constant above ~32 MB, mildly penalized below
		GPULinkPeak:       50 * GB,  // NVLink 2.0
		GPUPinnedSetup:    10 * time.Microsecond,
		GPUUnpinnedSetup:  120 * time.Microsecond,
		GPUUnpinnedFactor: 0.55,
		SSDWritePeak:      2.1 * GB, // node-local 1.6 TB NVMe
	})
	gpfs := pfs.GPFS(clk, pfs.GPFSConfig{
		// 0.4 GB/s per rank × 768 ranks ≈ 307 GB/s achievable backend:
		// the synchronous weak-scaling knee lands at 128 nodes, as
		// measured (§V-A1). The 2.5 TB/s figure is the hardware peak
		// across all users, never seen by one job.
		BackendPeak: 307 * GB,
		PerFlowBW:   0.4 * GB,
		ReactRamp:   32 << 20, // GPFS workload-reactive small-request penalty
		MetaLatency: 500 * time.Microsecond,
		OpLatency:   200 * time.Microsecond,
	})
	s := &System{
		Name:         "summit",
		Clk:          clk,
		Machine:      machine,
		PFS:          gpfs,
		RanksPerNode: ranksPerNode,
		MaxNodes:     4608,
	}
	finish(s, cfg)
	return s
}

// CoriHaswell builds a Cori-Haswell allocation of the given node count.
func CoriHaswell(clk *vclock.Clock, nodes int, opts ...Option) *System {
	const ranksPerNode = 32
	if nodes <= 0 || nodes > 2388 {
		panic(fmt.Sprintf("systems: Cori allocation %d nodes outside 1..2388", nodes))
	}
	cfg := apply(opts)
	machine := memsys.NewMachine(clk, nodes, ranksPerNode, memsys.NodeConfig{
		MemcpyPeak: 10 * GB, // per-node DRAM copy bandwidth shared by 32 ranks
		MemcpyRamp: 64 << 10,
		// No GPUs, no node-local SSD on Haswell nodes.
	})
	lustre := pfs.Lustre(clk, pfs.LustreConfig{
		// 72 OSTs (stripe_large) at ~1.4 GB/s each ≈ 100 GB/s for one
		// job; per-rank client bandwidth 0.1 GB/s puts the weak-scaling
		// knee at ~1024 ranks (32 nodes), as measured.
		OSTs:         72,
		OSTBandwidth: 1.4 * GB,
		PerFlowBW:    0.1 * GB,
		StripeRamp:   1 << 20,
		MetaLatency:  300 * time.Microsecond,
		OpLatency:    100 * time.Microsecond,
	})
	s := &System{
		Name:         "cori-haswell",
		Clk:          clk,
		Machine:      machine,
		PFS:          lustre,
		BurstBuffer:  pfs.BurstBuffer(clk, 1.7*TB, 0.3*GB),
		RanksPerNode: ranksPerNode,
		MaxNodes:     2388,
	}
	finish(s, cfg)
	return s
}

func apply(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

func finish(s *System, cfg config) {
	s.Metrics = metrics.NewRegistry(s.Clk)
	if cfg.series {
		s.Metrics.EnableSeries()
	}
	s.RunObserver = cfg.runObserver
	s.PFS.Instrument(s.Metrics)
	s.BurstBuffer.Instrument(s.Metrics)
	if cfg.crit != nil {
		s.Crit = cfg.crit
		s.Clk.SetWaitObserver(s.Crit)
		s.PFS.SetCrit(s.Crit)
		s.BurstBuffer.SetCrit(s.Crit)
		// Must precede Attach-time RetryStage creation in the workloads:
		// the injector captures the recorder into its retry policy.
		if cfg.faults != nil {
			cfg.faults.SetCrit(s.Crit)
		}
	}
	if cfg.consistency != nil {
		s.Consistency = cfg.consistency
		s.Consistency.SetCrit(s.Crit)
		s.Consistency.Instrument(s.Metrics)
	}
	if cfg.contention {
		s.PFS.SetContentionFactor(pfs.ContentionForDay(cfg.contentionSeed, cfg.day))
	}
	if cfg.faults != nil {
		s.Faults = cfg.faults
		targets := []*pfs.Target{s.PFS}
		if s.BurstBuffer != nil {
			targets = append(targets, s.BurstBuffer)
		}
		cfg.faults.Attach(s.Clk, s.Metrics, targets...)
	}
}

// Size returns the total rank count of the allocation.
func (s *System) Size() int { return s.Machine.Size() }

// Nodes returns the allocated node count.
func (s *System) Nodes() int { return s.Machine.NumNodes() }

// NodeOf returns the memory system of the node hosting rank.
func (s *System) NodeOf(rank int) *memsys.Node { return s.Machine.NodeOf(rank) }

// MemcpyModel returns a transactional-overhead model for rank: a
// DRAM-to-DRAM staging copy on the rank's node (CPU applications).
func (s *System) MemcpyModel(rank int) func(p *vclock.Proc, nbytes int64) {
	node := s.NodeOf(rank)
	return func(p *vclock.Proc, nbytes int64) {
		if p != nil {
			node.Memcpy(p, nbytes)
		}
	}
}

// GPUCopyModel returns a transactional-overhead model for rank on a GPU
// application: a GPU→CPU transfer precedes the staging copy.
func (s *System) GPUCopyModel(rank int, pinned bool) func(p *vclock.Proc, nbytes int64) {
	node := s.NodeOf(rank)
	return func(p *vclock.Proc, nbytes int64) {
		if p != nil {
			node.GPUTransfer(p, nbytes, pinned)
			node.Memcpy(p, nbytes)
		}
	}
}

// SSDStageModel returns a transactional-overhead model that stages to
// the node-local SSD instead of DRAM (Summit's alternative buffering
// location).
func (s *System) SSDStageModel(rank int) func(p *vclock.Proc, nbytes int64) {
	node := s.NodeOf(rank)
	return func(p *vclock.Proc, nbytes int64) {
		if p != nil {
			node.SSDWrite(p, nbytes)
		}
	}
}
