package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/perfetto"
	"asyncio/internal/recovery"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/workloads/bdcats"
	"asyncio/internal/workloads/castro"
	"asyncio/internal/workloads/eqsim"
	"asyncio/internal/workloads/harness"
	"asyncio/internal/workloads/nyx"
	"asyncio/internal/workloads/vpicio"
)

// RunSpec names one instrumented run: one workload on one system. It is
// what cmd/asyncio-trace's own flags and a campaign run spec's fields
// both reduce to; everything else about the run travels in RunKnobs.
type RunSpec struct {
	Workload string // vpic | bdcats | nyx | castro | eqsim
	System   string // summit | cori
	Nodes    int
	Mode     string // sync | async | adaptive
	Steps    int    // epochs (checkpoints / time steps)
	// Compute is the computation phase per epoch (nyx and eqsim carry
	// their own compute model and ignore it).
	Compute time.Duration
	// CheckpointEvery commits a durable checkpoint every N epochs and
	// Journal captures a write-ahead journal of asynchronous writes
	// (vpic only); either one puts the run on a write-back durable
	// store that an injected crash tears.
	CheckpointEvery int
	Journal         bool
}

// Validate rejects what Run cannot execute: an unknown workload, system
// or mode, and crash-durability plumbing on a workload that has none.
func (s RunSpec) Validate() error {
	switch s.Workload {
	case "vpic", "bdcats", "nyx", "castro", "eqsim":
	default:
		return fmt.Errorf("unknown workload %q", s.Workload)
	}
	if s.System != "summit" && s.System != "cori" {
		return fmt.Errorf("unknown system %q", s.System)
	}
	if _, ok := runModes[s.Mode]; !ok {
		return fmt.Errorf("unknown mode %q", s.Mode)
	}
	if (s.CheckpointEvery > 0 || s.Journal) && s.Workload != "vpic" {
		return fmt.Errorf("checkpoint-every/journal are only wired into the vpic workload")
	}
	return nil
}

var runModes = map[string]core.Mode{
	"sync":     core.ForceSync,
	"async":    core.ForceAsync,
	"adaptive": core.Adaptive,
}

// RunOutput is what one instrumented run produced: the report, the
// human summary, and writers for each exportable artifact. An aborted
// run (injected crash) still has all of them — the partial report is
// the result of a crash scenario, not a failure to produce one.
type RunOutput struct {
	Report *core.Report
	// Summary holds the run's summary lines: the headline, the
	// consistency checker's verdict, and for an aborted run the crash
	// records plus the cache-tear / journal-scan / last-checkpoint
	// classification.
	Summary []byte

	label string
}

// WriteTrace writes the per-epoch trace CSV (the input cmd/iomodel fits).
func (o *RunOutput) WriteTrace(w io.Writer) error {
	return trace.WriteCSV(w, o.Report.Run.Records)
}

// WriteMetrics writes the metrics registry as CSV.
func (o *RunOutput) WriteMetrics(w io.Writer) error {
	return o.Report.Metrics.WriteCSV(w, o.label)
}

// WritePerfetto writes the span trees, metric series and (when the run
// was profiled) the critical-path overlay as Chrome trace-event JSON.
func (o *RunOutput) WritePerfetto(w io.Writer) error {
	return perfetto.WriteProfile(w, o.Report.Spans, o.Report.Metrics, o.Report.CritPath)
}

// Run executes one instrumented run under the given knobs. It returns
// (nil, err) when the run could not produce a report; (out, nil) for a
// clean run; and (out, err) when there is a report but the run is not
// clean — err is then "run aborted: …" (out.Report.Aborted, every
// artifact still valid) or "consistency check: …" (the run completed
// and the oracle found a violation).
func Run(s RunSpec, k *RunKnobs) (*RunOutput, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	mode := runModes[s.Mode]
	// A single run's exports have never carried the storage targets'
	// setup-time gauge writes (the generators' observed runs do): its
	// series start once the system is assembled.
	sys := k.newSystem(s.System, s.Nodes, systems.WithSeries(false))
	if k != nil && k.Series {
		sys.Metrics.EnableSeries()
	}

	// Crash-consistency plumbing: a durable write-back store with charged
	// fsync barriers, periodic checkpoints, and (optionally) a write-ahead
	// journal on the asynchronous path.
	var kit *harness.CrashKit
	var ck *harness.Checkpointer
	if s.CheckpointEvery > 0 || s.Journal {
		kit = harness.NewCrashKit(k.durability(), recovery.DefaultCost(), s.Journal)
		ck = harness.NewCheckpointer(s.CheckpointEvery, kit.Journal)
		ck.Instrument(sys.Metrics)
		kit.Journal.Instrument(sys.Metrics, s.Workload)
		kit.SetCrit(sys.Crit)
	}

	var rep *core.Report
	var err error
	switch s.Workload {
	case "vpic":
		cfg := vpicio.Config{Steps: s.Steps, ComputeTime: s.Compute, Mode: mode}
		if kit != nil {
			cfg.Store = kit.Durable
			cfg.Checkpoint = ck
			if s.Journal {
				cfg.Env.AsyncInlineStages = kit.InlineStages()
			}
		}
		rep, _, err = vpicio.Run(sys, cfg)
	case "bdcats":
		rep, err = bdcats.Run(sys, bdcats.Config{Steps: s.Steps, ComputeTime: s.Compute, Mode: mode}, nil)
	case "nyx":
		cfg := nyx.SmallConfig()
		cfg.Plotfiles = s.Steps
		cfg.Mode = mode
		rep, err = nyx.Run(sys, cfg)
	case "castro":
		rep, err = castro.Run(sys, castro.Config{Checkpoints: s.Steps, ComputeTime: s.Compute, Mode: mode})
	case "eqsim":
		rep, err = eqsim.Run(sys, eqsim.Config{Checkpoints: s.Steps, Mode: mode})
	}
	// An aborted run (injected crash, mid-run failure) still carries a
	// partial report; anything else that failed has nothing to export.
	aborted := err != nil && rep != nil && rep.Aborted
	if err != nil && !aborted {
		return nil, err
	}

	out := &RunOutput{
		Report: rep,
		label:  fmt.Sprintf("%s-%s-%dn-%s", s.Workload, sys.Name, sys.Nodes(), s.Mode),
	}
	var sum bytes.Buffer
	fmt.Fprintf(&sum, "%s on %s, %d nodes (%d ranks), %d epochs, mode=%s: total %v, peak %.2f GB/s\n",
		s.Workload, sys.Name, sys.Nodes(), rep.Run.Ranks, len(rep.Run.Records), s.Mode,
		rep.Run.TotalTime().Round(time.Millisecond), rep.Run.PeakRate()/1e9)
	var checkErr error
	if cons := sys.Consistency; cons != nil {
		fmt.Fprintf(&sum, "consistency: %s, visibility wait %v\n",
			cons.Checker().Summary(), time.Duration(cons.VisibilityWaitNs()))
		checkErr = cons.Checker().Check()
	}
	if aborted {
		for _, cr := range rep.Crashes {
			fmt.Fprintf(&sum, "crash at %v: ranks %v (%s)\n", cr.At, cr.Ranks, cr.Err)
		}
		if kit != nil {
			// Power-loss semantics: tear the un-fsynced cache into the base
			// image, then scan the journal against what survived.
			if pr := kit.Durable.Crash(sys.Clk.Now()); pr != nil {
				fmt.Fprintf(&sum, "write-back cache at crash: %d dirty bytes → %d flushed, %d torn, %d lost\n",
					pr.DirtyBytes, pr.Flushed, pr.Torn, pr.Lost)
			}
			scan := recovery.Scan(kit.Journal.Bytes(), kit.Base, recovery.ScanOptions{Replay: true})
			fmt.Fprintf(&sum, "journal scan: %s\n", scan.Summary())
			fmt.Fprintf(&sum, "last durable checkpoint: epoch %d (restart from %d)\n",
				ck.LastDurable(), ck.LastDurable()+1)
		}
	}
	out.Summary = sum.Bytes()
	switch {
	case aborted:
		return out, fmt.Errorf("run aborted: %w", err)
	case checkErr != nil:
		return out, fmt.Errorf("consistency check: %w", checkErr)
	}
	return out, nil
}
