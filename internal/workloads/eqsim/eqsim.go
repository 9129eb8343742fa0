// Package eqsim reproduces the I/O behaviour of EQSIM/SW4 (§IV-C): a
// fourth-order seismic wave solver checkpointing its 3-D volume every
// CheckpointEvery time steps. The physical domain (30000×30000×17000 m
// at grid spacing 50 m → 600×600×340 grid points) is fixed as ranks
// scale — strong scaling, so per-rank checkpoint data shrinks and
// synchronous aggregate bandwidth decays while asynchronous staging
// stays consistent (Fig. 6).
package eqsim

import (
	"fmt"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/hdf5"
	"asyncio/internal/model"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/workloads/harness"
)

// Config parameterizes a run.
type Config struct {
	// Grid is the number of grid points per dimension (default the
	// paper's h=50 discretization: 600×600×340).
	Grid [3]int
	// NComp is the number of wavefield components checkpointed
	// (default 3: displacement vector).
	NComp int
	// Checkpoints is the number of I/O epochs (default 5).
	Checkpoints int
	// CheckpointEvery is the time steps between checkpoints (paper:
	// 100); TimePerStep is the cost of one step (default 250 ms).
	CheckpointEvery int
	TimePerStep     time.Duration
	Mode            core.Mode
	Ranks           int
	Materialize     bool
	Env             harness.Options
	Estimator       *model.Estimator
}

// Run executes the EQSIM checkpoint skeleton on sys.
func Run(sys *systems.System, cfg Config) (*core.Report, error) {
	if cfg.Grid == [3]int{} {
		cfg.Grid = [3]int{600, 600, 340}
	}
	if cfg.NComp == 0 {
		cfg.NComp = 3
	}
	if cfg.Checkpoints == 0 {
		cfg.Checkpoints = 5
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 100
	}
	if cfg.TimePerStep == 0 {
		cfg.TimePerStep = 250 * time.Millisecond
	}
	cfg.Env.Materialize = cfg.Materialize
	ranks := harness.Ranks(sys, cfg.Ranks)
	totalElems := uint64(cfg.Grid[0]) * uint64(cfg.Grid[1]) * uint64(cfg.Grid[2]) * uint64(cfg.NComp)
	if totalElems < uint64(ranks) {
		return nil, fmt.Errorf("eqsim: grid %v too small for %d ranks", cfg.Grid, ranks)
	}

	raw, err := harness.CreateSharedFile(sys, cfg.Materialize)
	if err != nil {
		return nil, err
	}
	return harness.Run(sys, raw, harness.App{
		Name:       "eqsim",
		Iterations: cfg.Checkpoints,
		Compute:    time.Duration(cfg.CheckpointEvery) * cfg.TimePerStep,
		Mode:       cfg.Mode,
		Ranks:      ranks,
		Env:        cfg.Env,
		Estimator:  cfg.Estimator,
		IO: func(ctx *core.RankCtx, env *harness.Env, iter int, mode trace.Mode) (int64, error) {
			return writeCheckpoint(ctx, env, mode, iter, totalElems)
		},
	})
}

// writeCheckpoint writes this rank's slab of the full wavefield volume.
func writeCheckpoint(ctx *core.RankCtx, env *harness.Env, mode trace.Mode, step int, totalElems uint64) (int64, error) {
	c := ctx.Comm
	pr := env.Props(ctx.P, mode)
	file := env.File(mode)
	name := fmt.Sprintf("checkpoint%05d", step)
	if c.Rank() == 0 {
		g, err := file.Root().CreateGroup(pr, name)
		if err != nil {
			return 0, err
		}
		if err := g.SetAttrInt64(pr, "cycle", int64(step)); err != nil {
			return 0, err
		}
		if _, err := g.CreateDataset(pr, "wavefield", hdf5.F32,
			hdf5.MustSimple(totalElems), nil); err != nil {
			return 0, err
		}
	}
	c.Barrier()
	ds, err := file.Root().OpenDataset(pr, name+"/wavefield")
	if err != nil {
		return 0, err
	}
	sel, count, err := harness.Block1D(totalElems, c.Rank(), c.Size())
	if err != nil || sel == nil { // nil selection: past the end, nothing to move
		return 0, err
	}
	nbytes := int64(count) * 4
	if err := env.Write(pr, ds, sel, nbytes, nil); err != nil {
		return 0, err
	}
	return nbytes, nil
}
