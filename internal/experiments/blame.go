package experiments

import (
	"fmt"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/critpath"
	"asyncio/internal/faults"
	"asyncio/internal/systems"
	"asyncio/internal/workloads/vpicio"
)

// blameCauses is the fixed category order the abl-blame table plots
// (one X index per cause, every run a series over the same axis).
var blameCauses = []critpath.Cause{
	critpath.Compute,
	critpath.CollectiveWait,
	critpath.QueueWait,
	critpath.StageCopy,
	critpath.PFSTransfer,
	critpath.Metadata,
	critpath.FsyncJournal,
	critpath.RetryBackoff,
	critpath.FaultStall,
	critpath.Unattributed,
}

// blameOutageSpec injects a full GPFS outage across the start of the
// second epoch's I/O phase. With 1 s compute and ~1.35 s of synchronous
// I/O per epoch, epoch 1's write burst begins at ~3.35 s; the outage
// opens just before it, so every write fails on arrival until the
// window lifts and the retry stage's capped exponential backoff carries
// the critical path through the fault.
const blameOutageSpec = "outage=gpfs@3300ms+1s;retries=12;backoff=50ms;maxbackoff=400ms"

// AblationBlame validates the causal critical-path profiler's blame
// attribution end to end (§V-A's sync/async contrast, re-read through
// the profiler): VPIC-IO on a small Summit allocation, run three ways —
// synchronous, asynchronous, and synchronous under an injected storage
// outage. The experiment errors (rather than merely noting) when the
// profiles violate the properties the profiler promises:
//
//   - attribution coverage ≥ 97% of the makespan on every run;
//   - the synchronous run's largest non-compute category is
//     pfs-transfer (blocking writes sit on the critical path);
//   - the asynchronous run's top category is compute (I/O is hidden);
//   - the sync→async differential moves ≥ 0.20 of makespan share off
//     pfs-transfer;
//   - inside the faulted run's outage window, blame concentrates on
//     retry-backoff / fault-stall.
func AblationBlame(scale Scale, k *RunKnobs) (*Table, error) {
	nodes := scale.SummitNodes[0]
	const steps = 3
	const compute = time.Second

	variants := []struct {
		name string
		mode core.Mode
		spec string
	}{
		{"sync", core.ForceSync, ""},
		{"async", core.ForceAsync, ""},
		{"sync-faulted", core.ForceSync, blameOutageSpec},
	}
	profs := make([]*critpath.Profile, len(variants))
	err := RunParallel(k, len(variants), func(i int) error {
		v := variants[i]
		opts := []systems.Option{systems.WithCritPath(critpath.NewRecorder())}
		if v.spec != "" {
			in, err := faults.New(v.spec)
			if err != nil {
				return err
			}
			opts = append(opts, systems.WithFaults(in))
		}
		sys := k.newSystem("summit", nodes, opts...)
		rep, _, err := vpicio.Run(sys, vpicio.Config{
			Steps: steps, ComputeTime: compute, Mode: v.mode,
		})
		if err != nil {
			return fmt.Errorf("abl-blame %s: %w", v.name, err)
		}
		if rep.CritPath == nil {
			return fmt.Errorf("abl-blame %s: report carries no critical-path profile", v.name)
		}
		profs[i] = rep.CritPath
		return nil
	})
	if err != nil {
		return nil, err
	}
	syncProf, asyncProf, faultProf := profs[0], profs[1], profs[2]

	for i, p := range profs {
		if p.Coverage < 0.97 {
			return nil, fmt.Errorf("abl-blame %s: attribution coverage %.4f below 0.97",
				variants[i].name, p.Coverage)
		}
	}
	if top := largestNonCompute(syncProf); top != critpath.PFSTransfer {
		return nil, fmt.Errorf("abl-blame sync: largest non-compute category is %s, want %s",
			top, critpath.PFSTransfer)
	}
	if top := asyncProf.TopCause(); top != critpath.Compute {
		return nil, fmt.Errorf("abl-blame async: top category is %s, want %s", top, critpath.Compute)
	}
	diff := critpath.Diff(syncProf, asyncProf)
	if moved := -diff.Entry(critpath.PFSTransfer).DeltaShare; moved < 0.20 {
		return nil, fmt.Errorf("abl-blame: sync→async moved only %.3f of makespan share off %s, want ≥ 0.20",
			moved, critpath.PFSTransfer)
	}
	outage, ok := findWindow(faultProf, "outage:gpfs")
	if !ok {
		return nil, fmt.Errorf("abl-blame sync-faulted: profile has no outage:gpfs window")
	}
	if len(outage.Categories) == 0 {
		return nil, fmt.Errorf("abl-blame sync-faulted: outage window attributes nothing")
	}
	if top := outage.Categories[0].Cause; top != critpath.RetryBackoff && top != critpath.FaultStall {
		return nil, fmt.Errorf("abl-blame sync-faulted: outage window blames %s, want %s or %s",
			top, critpath.RetryBackoff, critpath.FaultStall)
	}

	t := &Table{
		ID:     "abl-blame",
		Title:  fmt.Sprintf("VPIC-IO critical-path blame by category, Summit (%d nodes)", nodes),
		XLabel: "category index", YLabel: "share of makespan",
	}
	for i, v := range variants {
		var xs, ys []float64
		for ci, c := range blameCauses {
			xs = append(xs, float64(ci))
			ys = append(ys, profs[i].CategoryShare(c))
		}
		t.Series = append(t.Series, Series{Name: v.name, X: xs, Y: ys})
	}
	for ci, c := range blameCauses {
		t.note("category %d = %s", ci, c)
	}
	for i, v := range variants {
		t.note("%s: makespan %.3fs, coverage %.1f%%, top cause %s",
			v.name, profs[i].MakespanSeconds, 100*profs[i].Coverage, profs[i].TopCause())
	}
	t.note("sync→async: %.2f of makespan share moved off %s",
		-diff.Entry(critpath.PFSTransfer).DeltaShare, critpath.PFSTransfer)
	t.note("outage window [%.2fs, %.2fs] blames %s",
		outage.StartSeconds, outage.EndSeconds, outage.Categories[0].Cause)
	return t, nil
}

// largestNonCompute returns the biggest category that is neither
// compute nor unattributed.
func largestNonCompute(p *critpath.Profile) critpath.Cause {
	for _, ct := range p.Categories { // sorted by seconds, descending
		c := critpath.Cause(ct.Cause)
		if c != critpath.Compute && c != critpath.Unattributed {
			return c
		}
	}
	return critpath.Unattributed
}

// findWindow returns the named fault-window profile.
func findWindow(p *critpath.Profile, name string) (critpath.WindowProfile, bool) {
	for _, w := range p.Windows {
		if w.Name == name {
			return w, true
		}
	}
	return critpath.WindowProfile{}, false
}
