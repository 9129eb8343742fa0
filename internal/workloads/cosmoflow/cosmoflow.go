// Package cosmoflow reproduces the I/O behaviour of CosmoFlow training
// (§IV-C): a 3-D CNN predicting cosmological parameters from 128³-voxel
// matter-distribution volumes. Each training step reads one batch per
// rank from the shared dataset; the "computation" phase is the training
// step itself. The asynchronous mode models a double-buffered DataLoader
// that prefetches the next batch while the current one trains — the
// paper's custom PyTorch DataLoader. The dataset is fixed, so scaling
// ranks is strong scaling over the read path (Fig. 5).
package cosmoflow

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
)

// Config parameterizes a run.
type Config struct {
	// BatchSize is samples per rank per step (paper: 8).
	BatchSize int
	// Epochs over the dataset (paper: 4); StepsPerEpoch defaults to 8.
	Epochs        int
	StepsPerEpoch int
	// VoxelsPerSide of each sample volume (paper: 128).
	VoxelsPerSide int
	// TrainTime is the computation per training step (default 10 s,
	// long enough for prefetch overlap on a loaded PFS).
	TrainTime   time.Duration
	Mode        core.Mode
	Ranks       int
	Materialize bool
	Env         harness.Options
	Estimator   *model.Estimator
}

// Run executes the training I/O skeleton on sys.
func Run(sys *systems.System, cfg Config) (*core.Report, error) {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 8
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 4
	}
	if cfg.StepsPerEpoch == 0 {
		cfg.StepsPerEpoch = 8
	}
	if cfg.VoxelsPerSide == 0 {
		cfg.VoxelsPerSide = 128
	}
	if cfg.TrainTime == 0 {
		cfg.TrainTime = 10 * time.Second
	}
	cfg.Env.Materialize = cfg.Materialize
	// GPU training: samples staged through the GPU link by default on
	// machines that have one.
	ranks := harness.Ranks(sys, cfg.Ranks)
	sampleElems := uint64(cfg.VoxelsPerSide) * uint64(cfg.VoxelsPerSide) * uint64(cfg.VoxelsPerSide)
	stepElems := sampleElems * uint64(cfg.BatchSize) * uint64(ranks)
	totalElems := stepElems * uint64(cfg.StepsPerEpoch)
	iterations := cfg.Epochs * cfg.StepsPerEpoch

	raw, err := harness.CreateSharedFile(sys, cfg.Materialize)
	if err != nil {
		return nil, err
	}
	// Host-side dataset setup (the training corpus exists before the
	// job starts).
	corpus := vol.Native{}.Wrap(raw)
	if _, err := corpus.Root().CreateDataset(vol.Props{},
		"universe", hdf5.F32, hdf5.MustSimple(totalElems), nil); err != nil {
		return nil, fmt.Errorf("cosmoflow: creating dataset: %w", err)
	}

	batchSel := func(iter, rank int) (*hdf5.Dataspace, int64, error) {
		step := iter % cfg.StepsPerEpoch
		start := uint64(step)*stepElems + uint64(rank)*sampleElems*uint64(cfg.BatchSize)
		count := sampleElems * uint64(cfg.BatchSize)
		sel := hdf5.MustSimple(totalElems)
		if err := sel.SelectHyperslab([]uint64{start}, nil, []uint64{1}, []uint64{count}); err != nil {
			return nil, 0, err
		}
		return sel, int64(count) * 4, nil
	}

	return harness.Run(sys, raw, harness.App{
		Name:       "cosmoflow",
		Iterations: iterations,
		Compute:    cfg.TrainTime,
		Mode:       cfg.Mode,
		Ranks:      ranks,
		Env:        cfg.Env,
		Estimator:  cfg.Estimator,
		IO: func(ctx *core.RankCtx, env *harness.Env, iter int, mode trace.Mode) (int64, error) {
			pr := env.Props(ctx.P, mode)
			ds, err := env.File(mode).Root().OpenDataset(pr, "universe")
			if err != nil {
				return 0, err
			}
			sel, nbytes, err := batchSel(iter, ctx.Rank)
			if err != nil {
				return 0, err
			}
			if _, err := env.Read(pr, ds, sel, nbytes); err != nil {
				return 0, err
			}
			// Double-buffered loader: stage the next batch during the
			// next training step.
			if mode == trace.Async && iter+1 < iterations {
				nsel, _, err := batchSel(iter+1, ctx.Rank)
				if err != nil {
					return 0, err
				}
				if err := ds.Prefetch(pr, nsel); err != nil {
					return 0, err
				}
			}
			return nbytes, nil
		},
	})
}
