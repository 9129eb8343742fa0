// Package bdcats reproduces the BD-CATS-IO kernel (§IV-B): the read side
// of trillion-particle clustering (DBSCAN at scale). It reads the
// particle data written by VPIC-IO, one time step per epoch, with the
// clustering computation replaced by a simulated sleep. In asynchronous
// mode the connector's prefetching stages the next step's datasets
// during the current computation phase; the first step's read is always
// blocking, exactly as in the HDF5 async VOL (§V-A2).
package bdcats

import (
	"fmt"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/hdf5"
	"asyncio/internal/model"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/vol"
	"asyncio/internal/workloads/harness"
	"asyncio/internal/workloads/vpicio"
)

// Config parameterizes a run.
type Config struct {
	// Steps is the number of time steps to read.
	Steps int
	// ParticlesPerRank must match the writer's configuration.
	ParticlesPerRank uint64
	// ComputeTime is the simulated clustering time per epoch (default
	// 30 s).
	ComputeTime time.Duration
	Mode        core.Mode
	Ranks       int
	Materialize bool
	Env         harness.Options
	Estimator   *model.Estimator
}

// PopulateInput creates a VPIC-IO-shaped file without timing charges:
// the groups and datasets for each step exist and storage is allocated,
// so a reader run can be driven without first simulating the writer.
func PopulateInput(sys *systems.System, steps int, particlesPerRank uint64, ranks int, materialize bool) (*hdf5.File, error) {
	raw, err := harness.CreateSharedFile(sys, materialize)
	if err != nil {
		return nil, err
	}
	total := particlesPerRank * uint64(ranks)
	root := vol.Native{}.Wrap(raw).Root()
	pr := vol.Props{} // untimed host-side setup
	for s := 0; s < steps; s++ {
		g, err := root.CreateGroup(pr, vpicio.StepGroup(s))
		if err != nil {
			return nil, err
		}
		space := hdf5.MustSimple(total)
		for _, prop := range vpicio.Properties {
			if _, err := g.CreateDataset(pr, prop, hdf5.F32, space, nil); err != nil {
				return nil, err
			}
		}
	}
	return raw, nil
}

// Run executes the reader on sys against input (a file shaped like
// VPIC-IO output; nil to have one populated automatically).
func Run(sys *systems.System, cfg Config, input *hdf5.File) (*core.Report, error) {
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
	ranks := harness.Ranks(sys, cfg.Ranks)
	if input == nil {
		var err error
		input, err = PopulateInput(sys, cfg.Steps, cfg.ParticlesPerRank, ranks, cfg.Materialize)
		if err != nil {
			return nil, fmt.Errorf("bdcats: populating input: %w", err)
		}
	} else if input.Closed() {
		// A writer run closes its file at termination; re-open it from
		// the same store on the system's file-system driver.
		var err error
		input, err = hdf5.Open(input.Store(), hdf5.WithDriver(sys.PFS))
		if err != nil {
			return nil, fmt.Errorf("bdcats: reopening input: %w", err)
		}
	}
	return harness.Run(sys, input, harness.App{
		Name:       "bd-cats-io",
		Iterations: cfg.Steps,
		Compute:    cfg.ComputeTime,
		Mode:       cfg.Mode,
		Ranks:      ranks,
		Env:        cfg.Env,
		Estimator:  cfg.Estimator,
		IO: func(ctx *core.RankCtx, env *harness.Env, iter int, mode trace.Mode) (int64, error) {
			return readStep(ctx, env, cfg, iter, mode)
		},
	})
}

// readStep reads this rank's slab of every property for the step, then —
// in asynchronous mode — schedules prefetches for the next step so they
// overlap the following computation phase.
func readStep(ctx *core.RankCtx, env *harness.Env, cfg Config, step int, mode trace.Mode) (int64, error) {
	c := ctx.Comm
	pr := env.Props(ctx.P, mode)
	file := env.File(mode)
	total := cfg.ParticlesPerRank * uint64(c.Size())
	slab, err := harness.Slab1D(total, cfg.ParticlesPerRank, c.Rank())
	if err != nil {
		return 0, err
	}
	perPropBytes := int64(cfg.ParticlesPerRank) * 4

	g, err := file.Root().OpenGroup(pr, vpicio.StepGroup(step))
	if err != nil {
		return 0, err
	}
	var read int64
	for _, prop := range vpicio.Properties {
		ds, err := g.OpenDataset(pr, prop)
		if err != nil {
			return 0, err
		}
		if _, err := env.Read(pr, ds, slab, perPropBytes); err != nil {
			return 0, err
		}
		read += perPropBytes
	}

	// Trigger prefetching of the next step (the VOL connector does this
	// after the first step's data has been read).
	if mode == trace.Async && step+1 < cfg.Steps {
		ng, err := file.Root().OpenGroup(pr, vpicio.StepGroup(step+1))
		if err != nil {
			return 0, err
		}
		for _, prop := range vpicio.Properties {
			ds, err := ng.OpenDataset(pr, prop)
			if err != nil {
				return 0, err
			}
			if err := ds.Prefetch(pr, slab); err != nil {
				return 0, err
			}
		}
	}
	return read, nil
}
