// Package nyx reproduces the I/O behaviour of Nyx (§IV-C): a massively
// parallel AMR cosmology code built on AMReX. Each I/O phase writes one
// HDF5 plotfile; the computation phase is StepsPerPlot simulation time
// steps. The domain is fixed per configuration (256³ "small", 2048³
// "large"), so scaling the rank count is strong scaling: each rank's
// share of the plotfile shrinks, which is exactly the regime where the
// paper finds synchronous GPFS bandwidth degrading while asynchronous
// staging keeps scaling (Fig. 4a/4b) — until per-rank data becomes too
// small to use DRAM copy bandwidth efficiently (Cori, Fig. 4b).
package nyx

import (
	"time"

	"asyncio/internal/amrex"
	"asyncio/internal/core"
	"asyncio/internal/model"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/workloads/harness"
)

// Config parameterizes a run.
type Config struct {
	// Dim is the cubic domain edge (256 small, 2048 large).
	Dim int
	// MaxGrid is the AMReX max_grid_size; 0 auto-sizes it so every rank
	// owns at least one box (amrex.AutoMaxGrid).
	MaxGrid int
	// NComp is the number of plotfile components (default 4).
	NComp int
	// Plotfiles is the number of I/O epochs (default 5).
	Plotfiles int
	// StepsPerPlot is the simulation steps between plotfiles (paper:
	// 20 small / 50 large). This is Fig. 7's swept parameter.
	StepsPerPlot int
	// TimePerStep is the computation cost of one simulation step
	// (default 1 s).
	TimePerStep time.Duration
	Mode        core.Mode
	Ranks       int
	Materialize bool
	// Env selects the staging path; Nyx's GPU configuration sets
	// Env.GPU.
	Env       harness.Options
	Estimator *model.Estimator
}

// Defaults for the paper's two configurations.
func SmallConfig() Config {
	return Config{Dim: 256, StepsPerPlot: 20, NComp: 4, Plotfiles: 5}
}

// LargeConfig is the Summit configuration.
func LargeConfig() Config {
	return Config{Dim: 2048, StepsPerPlot: 50, NComp: 4, Plotfiles: 5}
}

// Run executes Nyx's I/O skeleton on sys.
func Run(sys *systems.System, cfg Config) (*core.Report, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 256
	}
	if cfg.NComp == 0 {
		cfg.NComp = 4
	}
	if cfg.Plotfiles == 0 {
		cfg.Plotfiles = 5
	}
	if cfg.StepsPerPlot == 0 {
		cfg.StepsPerPlot = 20
	}
	if cfg.TimePerStep == 0 {
		cfg.TimePerStep = time.Second
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
	return harness.Run(sys, raw, harness.App{
		Name:       "nyx",
		Iterations: cfg.Plotfiles,
		Compute:    time.Duration(cfg.StepsPerPlot) * cfg.TimePerStep,
		Mode:       cfg.Mode,
		Ranks:      ranks,
		Env:        cfg.Env,
		Estimator:  cfg.Estimator,
		IO: func(ctx *core.RankCtx, env *harness.Env, iter int, mode trace.Mode) (int64, error) {
			pr := env.Props(ctx.P, mode)
			return amrex.WritePlotfile(pr, env.File(mode), iter, ctx.Rank, mf,
				cfg.Materialize, ctx.Comm.Barrier)
		},
	})
}
