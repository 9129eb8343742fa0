package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/perfetto"
	"asyncio/internal/recovery"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
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
	// Workload, System and Mode are names from the run-kind tables
	// (see RunNames).
	Workload string
	System   string
	Nodes    int
	Mode     string
	Steps    int // epochs (checkpoints / time steps)
	// Compute is the computation phase per epoch (a workload that owns
	// its compute model ignores it; see OwnsCompute).
	Compute time.Duration
	// CheckpointEvery commits a durable checkpoint every N epochs and
	// Journal captures a write-ahead journal of asynchronous writes
	// (durable workloads only); either one puts the run on a write-back
	// durable store that an injected crash tears.
	CheckpointEvery int
	Journal         bool
}

// The run-kind tables are the one place that names the workloads,
// systems and modes an instrumented run accepts; Validate, Run,
// RunKnobs.newSystem, the campaign spec and asyncio-trace's flag help
// all read them. Help strings and "want …" lists follow their order.
type table[T any] []struct {
	name string
	v    T
}

func (t table[T]) find(name string) (v T, ok bool) {
	for _, e := range t {
		if e.name == name {
			return e.v, true
		}
	}
	return v, false
}

func (t table[T]) names() []string {
	ns := make([]string, len(t))
	for i, e := range t {
		ns[i] = e.name
	}
	return ns
}

// runState is one instrumented run in flight — what Run resolved from
// the spec and built for it — as the workload's runner receives it. kit
// and ck are nil unless the spec asks for checkpoints or a journal.
type runState struct {
	RunSpec
	sys  *systems.System
	mode core.Mode
	kit  *harness.CrashKit
	ck   *harness.Checkpointer
}

// runWorkload is one workload of the run kind: a new one is a row in
// runWorkloads and nothing else.
type runWorkload struct {
	run        func(r *runState) (*core.Report, error)
	ownCompute bool // carries its own compute model and ignores RunSpec.Compute
	durable    bool // wired for CheckpointEvery and Journal
}

var runWorkloads = table[runWorkload]{
	{"vpic", runWorkload{durable: true, run: func(r *runState) (*core.Report, error) {
		cfg := vpicio.Config{Steps: r.Steps, ComputeTime: r.Compute, Mode: r.mode}
		if r.kit != nil {
			cfg.Store = r.kit.Durable
			cfg.Checkpoint = r.ck
			if r.Journal {
				cfg.Env.AsyncInlineStages = r.kit.InlineStages()
			}
		}
		rep, _, err := vpicio.Run(r.sys, cfg)
		return rep, err
	}}},
	{"bdcats", runWorkload{run: func(r *runState) (*core.Report, error) {
		return bdcats.Run(r.sys, bdcats.Config{Steps: r.Steps, ComputeTime: r.Compute, Mode: r.mode}, nil)
	}}},
	{"nyx", runWorkload{ownCompute: true, run: func(r *runState) (*core.Report, error) {
		cfg := nyx.SmallConfig()
		cfg.Plotfiles = r.Steps
		cfg.Mode = r.mode
		return nyx.Run(r.sys, cfg)
	}}},
	{"castro", runWorkload{run: func(r *runState) (*core.Report, error) {
		return castro.Run(r.sys, castro.Config{Checkpoints: r.Steps, ComputeTime: r.Compute, Mode: r.mode})
	}}},
	{"eqsim", runWorkload{ownCompute: true, run: func(r *runState) (*core.Report, error) {
		return eqsim.Run(r.sys, eqsim.Config{Checkpoints: r.Steps, Mode: r.mode})
	}}},
}

var runSystems = table[func(*vclock.Clock, int, ...systems.Option) *systems.System]{
	{"summit", systems.Summit},
	{"cori", systems.CoriHaswell},
}

var runModes = table[core.Mode]{
	{"sync", core.ForceSync},
	{"async", core.ForceAsync},
	{"adaptive", core.Adaptive},
}

// RunNames lists the workload, system and mode names a RunSpec may
// carry, in table order — for flag help.
func RunNames() (workloads, systems, modes []string) {
	return runWorkloads.names(), runSystems.names(), runModes.names()
}

// OwnsCompute reports whether the named workload carries its own
// compute model, so that RunSpec.Compute does not reach it.
func OwnsCompute(workload string) bool {
	w, _ := runWorkloads.find(workload)
	return w.ownCompute
}

// wantList renders names as "a or b" or "a, b, or c".
func wantList(names []string) string {
	last := len(names) - 1
	if last < 2 {
		return strings.Join(names, " or ")
	}
	return strings.Join(names[:last], ", ") + ", or " + names[last]
}

// Validate rejects what Run cannot execute — an unknown workload, system
// or mode, and crash-durability plumbing on a workload that has none —
// and names the offending field as a campaign spec spells it.
func (s RunSpec) Validate() (field string, err error) {
	w, ok := runWorkloads.find(s.Workload)
	if !ok {
		return "workload", fmt.Errorf("unknown workload %q", s.Workload)
	}
	if _, ok := runSystems.find(s.System); !ok {
		return "system", fmt.Errorf("unknown system %q (want %s)", s.System, wantList(runSystems.names()))
	}
	if _, ok := runModes.find(s.Mode); !ok {
		return "mode", fmt.Errorf("unknown mode %q (want %s)", s.Mode, wantList(runModes.names()))
	}
	if (s.CheckpointEvery > 0 || s.Journal) && !w.durable {
		return "checkpoint_every", fmt.Errorf("checkpoint-every/journal are only wired into the vpic workload")
	}
	return "", nil
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
	if _, err := s.Validate(); err != nil {
		return nil, err
	}
	w, _ := runWorkloads.find(s.Workload)
	mode, _ := runModes.find(s.Mode)
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

	rep, err := w.run(&runState{s, sys, mode, kit, ck})
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
