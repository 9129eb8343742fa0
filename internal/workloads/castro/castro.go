// Package castro reproduces the I/O behaviour of Castro (§IV-C): a
// compressible-astrophysics AMReX code. The paper runs it at 128³ with 6
// components per multifab and 2 particles per cell; each checkpoint
// writes the multifab plotfile plus the particle data. Rank scaling with
// a fixed domain is strong scaling, giving the Fig. 4c/4d shapes.
package castro

import (
	"fmt"
	"time"

	"asyncio/internal/amrex"
	"asyncio/internal/core"
	"asyncio/internal/hdf5"
	"asyncio/internal/model"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/workloads/harness"
)

// Config parameterizes a run.
type Config struct {
	// Dim is the cubic domain edge (paper: 128).
	Dim int
	// MaxGrid is the AMReX max_grid_size; 0 auto-sizes it so every rank
	// owns at least one box (amrex.AutoMaxGrid).
	MaxGrid int
	// NComp is the multifab component count (paper: 6).
	NComp int
	// ParticlesPerCell (paper: 2); each particle carries 4 float64
	// fields.
	ParticlesPerCell int
	// Checkpoints is the number of I/O epochs (default 5).
	Checkpoints int
	// ComputeTime is the computation phase per epoch (default 25 s).
	ComputeTime time.Duration
	Mode        core.Mode
	Ranks       int
	Materialize bool
	Env         harness.Options
	Estimator   *model.Estimator
}

const particleFields = 4 // position ×3 + mass, each float64

// Run executes Castro's I/O skeleton on sys.
func Run(sys *systems.System, cfg Config) (*core.Report, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 128
	}
	if cfg.NComp == 0 {
		cfg.NComp = 6
	}
	if cfg.ParticlesPerCell == 0 {
		cfg.ParticlesPerCell = 2
	}
	if cfg.Checkpoints == 0 {
		cfg.Checkpoints = 5
	}
	if cfg.ComputeTime == 0 {
		cfg.ComputeTime = 25 * time.Second
	}
	cfg.Env.Materialize = cfg.Materialize
	ranks := harness.Ranks(sys, cfg.Ranks)
	if cfg.MaxGrid == 0 {
		cfg.MaxGrid = amrex.AutoMaxGrid(cfg.Dim, ranks)
	}

	raw, err := harness.CreateSharedFile(sys, cfg.Materialize)
	if err != nil {
		return nil, err
	}
	ba := amrex.ChopDomain(amrex.DomainBox(cfg.Dim), cfg.MaxGrid)
	mf := amrex.NewMultiFab(ba, cfg.NComp, ranks)
	totalParticles := uint64(amrex.DomainBox(cfg.Dim).NumCells()) * uint64(cfg.ParticlesPerCell)
	return harness.Run(sys, raw, harness.App{
		Name:       "castro",
		Iterations: cfg.Checkpoints,
		Compute:    cfg.ComputeTime,
		Mode:       cfg.Mode,
		Ranks:      ranks,
		Env:        cfg.Env,
		Estimator:  cfg.Estimator,
		IO: func(ctx *core.RankCtx, env *harness.Env, iter int, mode trace.Mode) (int64, error) {
			pr := env.Props(ctx.P, mode)
			file := env.File(mode)
			n, err := amrex.WritePlotfile(pr, file, iter, ctx.Rank, mf,
				cfg.Materialize, ctx.Comm.Barrier)
			if err != nil {
				return 0, err
			}
			pn, err := writeParticles(ctx, env, mode, iter, totalParticles)
			if err != nil {
				return 0, err
			}
			return n + pn, nil
		},
	})
}

// writeParticles writes this rank's share of the checkpoint's particle
// dataset: total particles × 4 float64 fields, block-distributed.
func writeParticles(ctx *core.RankCtx, env *harness.Env, mode trace.Mode, step int, totalParticles uint64) (int64, error) {
	c := ctx.Comm
	pr := env.Props(ctx.P, mode)
	file := env.File(mode)
	name := fmt.Sprintf("particles%05d", step)
	totalElems := totalParticles * particleFields
	if c.Rank() == 0 {
		if _, err := file.Root().CreateDataset(pr, name, hdf5.F64,
			hdf5.MustSimple(totalElems), nil); err != nil {
			return 0, err
		}
	}
	c.Barrier()
	ds, err := file.Root().OpenDataset(pr, name)
	if err != nil {
		return 0, err
	}
	sel, count, err := harness.Block1D(totalElems, c.Rank(), c.Size())
	if err != nil || sel == nil { // nil selection: past the end, nothing to move
		return 0, err
	}
	nbytes := int64(count) * 8
	if err := env.Write(pr, ds, sel, nbytes, nil); err != nil {
		return 0, err
	}
	return nbytes, nil
}
