// Package vpicio reproduces the VPIC-IO kernel (§IV-B): the I/O skeleton
// of the Vector Particle-In-Cell plasma-physics code. Each checkpoint
// writes eight float32 particle properties to 1-D datasets; every rank
// contributes 8×1024×1024 particles (≈32 MB per property), so the data
// volume weak-scales with the rank count. Computation between
// checkpoints is a configurable sleep (the paper uses 30 s).
package vpicio

import (
	"errors"
	"fmt"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
	"asyncio/internal/model"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/workloads/harness"
)

// Properties written per particle, as in the original kernel.
var Properties = []string{"x", "y", "z", "i", "ux", "uy", "uz", "ke"}

// Config parameterizes a run.
type Config struct {
	// Steps is the number of checkpoint epochs.
	Steps int
	// ParticlesPerRank defaults to 8×1024×1024 (≈32 MB per property).
	ParticlesPerRank uint64
	// ComputeTime is the simulated computation per epoch (default 30 s).
	ComputeTime time.Duration
	// Mode is the run policy.
	Mode core.Mode
	// Ranks defaults to the full allocation.
	Ranks int
	// Materialize enables real buffers (small correctness runs only).
	Materialize bool
	// Env tweaks the async connector (GPU/SSD staging, zero-copy).
	Env harness.Options
	// Estimator optionally carries model history across runs.
	Estimator *model.Estimator
	// Target overrides the storage tier the checkpoint file lives on
	// (default: the system's parallel file system). Use e.g.
	// sys.BurstBuffer to evaluate the burst-buffer tier.
	Target hdf5.Driver
	// AggWindow, when positive, aggregates synchronous writes: one
	// shared ioreq pipeline with an aggregation stage buffering up to
	// AggWindow requests per dataset coalesces adjacent rank slabs into
	// one storage dispatch (two-phase collective buffering). Set it to
	// the rank count to merge each property's per-step writes.
	AggWindow int
	// Store overrides the backing store — e.g. a pfs.DurableStore for
	// crash-consistency runs. Default: harness.NewStore(Materialize).
	Store hdf5.Store
	// OpenExisting opens the container already on Store instead of
	// creating a fresh one: restart runs resume into a recovered image.
	OpenExisting bool
	// StartStep numbers the first epoch this run executes. Steps remains
	// the total step count, so a restart run with StartStep=k performs
	// epochs k..Steps-1 against the surviving container. Step groups
	// that already exist (partially written before a crash, or restored
	// by journal replay) are reused.
	StartStep int
	// Checkpoint, when non-nil, runs the durable-commit protocol after
	// each eligible epoch (see harness.Checkpointer).
	Checkpoint *harness.Checkpointer
	// Observe, when non-nil, runs on rank 0 after each epoch's record
	// commits (see core.Hooks.Observe) — the hook experiments use to
	// assert on mid-run metrics.
	Observe func(ctx *core.RankCtx, iter int, rec trace.Record)
}

// Run executes the kernel on sys and returns the run report plus the
// shared file (for readers such as BD-CATS-IO).
func Run(sys *systems.System, cfg Config) (*core.Report, *hdf5.File, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 5
	}
	if cfg.ParticlesPerRank == 0 {
		cfg.ParticlesPerRank = 8 << 20
	}
	if cfg.ComputeTime == 0 {
		cfg.ComputeTime = 30 * time.Second
	}
	cfg.Env.Materialize = cfg.Materialize
	if cfg.AggWindow > 0 && cfg.Env.SyncPipeline == nil {
		cfg.Env.SyncPipeline = ioreq.New(ioreq.NewAgg(ioreq.AggConfig{MaxRequests: cfg.AggWindow})).
			WithMetrics(sys.Metrics)
	}

	if cfg.StartStep < 0 || cfg.StartStep >= cfg.Steps {
		return nil, nil, fmt.Errorf("vpicio: StartStep %d outside 0..%d", cfg.StartStep, cfg.Steps-1)
	}

	target := hdf5.Driver(sys.PFS)
	if cfg.Target != nil {
		target = cfg.Target
	}
	store := cfg.Store
	if store == nil {
		store = harness.NewStore(cfg.Materialize)
	}
	var raw *hdf5.File
	var err error
	if cfg.OpenExisting {
		raw, err = hdf5.Open(store, hdf5.WithDriver(target))
	} else {
		raw, err = hdf5.Create(store, hdf5.WithDriver(target))
	}
	if err != nil {
		return nil, nil, err
	}
	rep, err := harness.Run(sys, raw, harness.App{
		Name:       "vpic-io",
		Iterations: cfg.Steps - cfg.StartStep,
		Compute:    cfg.ComputeTime,
		Mode:       cfg.Mode,
		Ranks:      cfg.Ranks,
		Env:        cfg.Env,
		Estimator:  cfg.Estimator,
		Observe:    cfg.Observe,
		IO: func(ctx *core.RankCtx, env *harness.Env, iter int, mode trace.Mode) (int64, error) {
			step := cfg.StartStep + iter
			n, err := writeStep(ctx, env, cfg.ParticlesPerRank, step, mode)
			if err != nil {
				return n, err
			}
			// The checkpoint's drain+flush time lands in the epoch's I/O
			// time: the cost side of the interval tradeoff.
			return n, cfg.Checkpoint.Checkpoint(ctx, env, step)
		},
	})
	// On an aborted run rep is the partial report (epochs committed
	// before the crash plus the crash records); pass it through with the
	// file so chaos harnesses can still export and recover.
	return rep, raw, err
}

// StepGroup names the checkpoint group for a time step, matching the
// kernel's "Step#N" convention.
func StepGroup(step int) string { return fmt.Sprintf("Step#%d", step) }

// writeStep runs one rank's share of a checkpoint: rank 0 creates the
// step group and the eight property datasets, then every rank writes its
// particle slab to each.
func writeStep(ctx *core.RankCtx, env *harness.Env, particlesPerRank uint64, step int, mode trace.Mode) (int64, error) {
	c := ctx.Comm
	pr := env.Props(ctx.P, mode)
	pr.Span = ctx.IOSpan
	file := env.File(mode)
	total := particlesPerRank * uint64(c.Size())

	if c.Rank() == 0 {
		// Metadata is collective in spirit: rank 0 creates, everyone
		// else opens after the barrier. A restart run may find the step
		// group already on disk — created before the crash or restored
		// by journal replay — in which case it is reused, not an error.
		g, err := file.Root().CreateGroup(pr, StepGroup(step))
		if errors.Is(err, hdf5.ErrExists) {
			g, err = file.Root().OpenGroup(pr, StepGroup(step))
		}
		if err != nil {
			return 0, err
		}
		if err := g.SetAttrInt64(pr, "timestep", int64(step)); err != nil {
			return 0, err
		}
		space := hdf5.MustSimple(total)
		for _, prop := range Properties {
			if _, err := g.CreateDataset(pr, prop, hdf5.F32, space, nil); err != nil && !errors.Is(err, hdf5.ErrExists) {
				return 0, err
			}
		}
	}
	c.Barrier()

	g, err := file.Root().OpenGroup(pr, StepGroup(step))
	if err != nil {
		return 0, err
	}
	slab, err := harness.Slab1D(total, particlesPerRank, c.Rank())
	if err != nil {
		return 0, err
	}
	perPropBytes := int64(particlesPerRank) * 4
	var written int64
	for pi, prop := range Properties {
		ds, err := g.OpenDataset(pr, prop)
		if err != nil {
			return 0, err
		}
		fill := func(buf []byte) { fillParticles(buf, ctx.Rank, step, pi) }
		if err := env.Write(pr, ds, slab, perPropBytes, fill); err != nil {
			return 0, err
		}
		written += perPropBytes
	}
	return written, nil
}

// fillParticles writes a deterministic pattern so correctness tests can
// verify placement: each float32 is bits(rank<<20 | step<<16 | prop<<12 | i&0xfff).
func fillParticles(buf []byte, rank, step, prop int) {
	for i := 0; i+4 <= len(buf); i += 4 {
		v := uint32(rank)<<20 | uint32(step)<<16 | uint32(prop)<<12 | uint32(i/4)&0xfff
		buf[i] = byte(v)
		buf[i+1] = byte(v >> 8)
		buf[i+2] = byte(v >> 16)
		buf[i+3] = byte(v >> 24)
	}
}

// ExpectedValue returns the pattern value fillParticles wrote at element
// i of the given (rank, step, prop).
func ExpectedValue(rank, step, prop, i int) uint32 {
	return uint32(rank)<<20 | uint32(step)<<16 | uint32(prop)<<12 | uint32(i)&0xfff
}
