package experiments

import (
	"fmt"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/critpath"
	"asyncio/internal/pfs"
	"asyncio/internal/systems"
	"asyncio/internal/workloads/harness"
	"asyncio/internal/workloads/vpicio"
)

// consistencyModels is the spectrum the ablation sweeps, strongest
// first. The assertion order below depends on it.
var consistencyModels = []pfs.Model{
	pfs.ModelPOSIX,
	pfs.ModelSession,
	pfs.ModelMPIIO,
	pfs.ModelCommit,
}

// AblationConsistency reproduces the paper's weaker-models-buy-bandwidth
// result deterministically: VPIC-IO on a small Summit allocation, swept
// across the PFS consistency spectrum × {sync, async}, with the oracle
// checking every run. The experiment errors (rather than merely noting)
// when the spectrum fails the properties the models promise:
//
//   - under synchronous I/O the visibility-wait share of the critical
//     path strictly decreases along posix > session > mpiio > commit
//     (each weaker model defers or drops publish work);
//   - at least one weaker model delivers measurably higher synchronous
//     bandwidth than POSIX (≥ 1.05×) — the bandwidth the strong model's
//     per-write publish traffic was costing;
//   - asynchronous I/O hides the visibility cost: every model's async
//     visibility-wait share stays below its sync share cap;
//   - the consistency checker finds zero violations on every run (the
//     harness publishes at each model's own point, so the spectrum is
//     exercised, not just priced).
func AblationConsistency(scale Scale, k *RunKnobs) (*Table, error) {
	nodes := scale.SummitNodes[0]
	const steps = 3
	const compute = time.Second

	type cell struct {
		rate     float64 // delivered bandwidth, bytes/s
		visShare float64 // visibility-wait share of the makespan
		summary  string
	}
	cells := make([]cell, 2*len(consistencyModels))
	err := RunParallel(k, len(cells), func(i int) error {
		model := consistencyModels[i/2]
		mode := core.ForceSync
		if i%2 == 1 {
			mode = core.ForceAsync
		}
		sp, err := pfs.ParseConsistency(string(model) + ";check=1")
		if err != nil {
			return err
		}
		cons := pfs.NewConsistency(sp)
		sys := k.newSystem("summit", nodes,
			systems.WithCritPath(critpath.NewRecorder()),
			systems.WithConsistency(cons))
		// Checkpoint every epoch so the commit model has publish points
		// inside the run, not only at close.
		ck := harness.NewCheckpointer(1, nil)
		ck.Instrument(sys.Metrics)
		rep, _, err := vpicio.Run(sys, vpicio.Config{
			Steps: steps, ComputeTime: compute, Mode: mode,
			Checkpoint: ck,
		})
		if err != nil {
			return fmt.Errorf("abl-consistency %s %v: %w", model, mode, err)
		}
		if rep.CritPath == nil {
			return fmt.Errorf("abl-consistency %s %v: report carries no critical-path profile", model, mode)
		}
		if err := cons.Checker().Check(); err != nil {
			return fmt.Errorf("abl-consistency %s %v: %w", model, mode, err)
		}
		cells[i] = cell{
			rate:     rep.Run.PeakRate(),
			visShare: rep.CritPath.CategoryShare(critpath.VisibilityWait),
			summary:  cons.Checker().Summary(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The spectrum must be strictly ordered under synchronous I/O.
	for mi := 1; mi < len(consistencyModels); mi++ {
		stronger, weaker := cells[2*(mi-1)], cells[2*mi]
		if weaker.visShare >= stronger.visShare {
			return nil, fmt.Errorf(
				"abl-consistency: sync visibility-wait share not strictly decreasing: %s %.4f vs %s %.4f",
				consistencyModels[mi-1], stronger.visShare, consistencyModels[mi], weaker.visShare)
		}
	}
	posixSync := cells[0].rate
	bestGain, bestModel := 0.0, consistencyModels[0]
	for mi := 1; mi < len(consistencyModels); mi++ {
		if gain := cells[2*mi].rate / posixSync; gain > bestGain {
			bestGain, bestModel = gain, consistencyModels[mi]
		}
	}
	if bestGain < 1.05 {
		return nil, fmt.Errorf(
			"abl-consistency: no weaker model beats posix sync bandwidth measurably (best %s at %.3f×, want ≥ 1.05×)",
			bestModel, bestGain)
	}
	for mi, model := range consistencyModels {
		if sync, async := cells[2*mi], cells[2*mi+1]; async.visShare >= sync.visShare && sync.visShare > 0 {
			return nil, fmt.Errorf(
				"abl-consistency %s: async visibility-wait share %.4f not below sync %.4f — async failed to hide it",
				model, async.visShare, sync.visShare)
		}
	}

	t := &Table{
		ID:     "abl-consistency",
		Title:  fmt.Sprintf("VPIC-IO bandwidth and visibility-wait share by consistency model, Summit (%d nodes)", nodes),
		XLabel: "model index", YLabel: "GB/s | share of makespan",
	}
	var xs []float64
	for mi := range consistencyModels {
		xs = append(xs, float64(mi))
	}
	pick := func(f func(cell) float64, off int) []float64 {
		var ys []float64
		for mi := range consistencyModels {
			ys = append(ys, f(cells[2*mi+off]))
		}
		return ys
	}
	t.Series = []Series{
		{Name: "sync GB/s", X: xs, Y: pick(func(c cell) float64 { return gb(c.rate) }, 0)},
		{Name: "async GB/s", X: xs, Y: pick(func(c cell) float64 { return gb(c.rate) }, 1)},
		{Name: "sync vis-share", X: xs, Y: pick(func(c cell) float64 { return c.visShare }, 0)},
		{Name: "async vis-share", X: xs, Y: pick(func(c cell) float64 { return c.visShare }, 1)},
	}
	for mi, model := range consistencyModels {
		t.note("model %d = %s: sync %.2f GB/s (vis %.1f%%), async %.2f GB/s (vis %.1f%%)",
			mi, model, gb(cells[2*mi].rate), 100*cells[2*mi].visShare,
			gb(cells[2*mi+1].rate), 100*cells[2*mi+1].visShare)
	}
	for mi, model := range consistencyModels {
		t.note("%s checker: sync %s | async %s", model, cells[2*mi].summary, cells[2*mi+1].summary)
	}
	t.note("weakest useful model: %s at %.2f× posix sync bandwidth", bestModel, bestGain)
	return t, nil
}
