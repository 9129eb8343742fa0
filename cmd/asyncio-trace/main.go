// Command asyncio-trace runs one workload on a simulated system and
// writes its per-epoch trace as CSV — the input format cmd/iomodel fits
// the paper's model to. Together they form the offline half of the
// feedback loop: capture a history, fit the model, decide the mode.
//
// With -trace-json it additionally exports the run's span trees and
// metric series as Chrome trace-event JSON (open in ui.perfetto.dev);
// with -metrics it dumps the metrics registry as CSV; with -critpath
// and/or -pprof it records the run's causal wait-for graph and writes
// the analyzed critical-path profile (JSON plus a summary table on
// stderr, and a pprof protobuf for go tool pprof) — the Perfetto
// export then carries a "critical path" overlay row. All exports (and
// the CSV) survive an aborted run: a crash-injected run flushes its
// partial report before exiting non-zero.
//
// Crash-consistency runs (vpic only): -checkpoint-every N commits a
// durable checkpoint every N epochs (all ranks drain, rank 0 fsyncs);
// -journal captures a write-ahead journal of asynchronous writes. A run
// whose fault spec kills a rank or node (crashrank=/crashnode=) then
// tears the un-fsynced write-back cache at -durability granularity,
// scans the journal against the surviving image, replays what it can,
// and prints the classification.
//
// Usage:
//
//	asyncio-trace -workload vpic -system summit -nodes 16 -mode adaptive -steps 8 -o trace.csv
//	asyncio-trace -workload bdcats -system cori -nodes 4 -mode async
//	asyncio-trace -workload vpic -nodes 2 -steps 2 -mode async -trace-json run.json -metrics run-metrics.csv
//	asyncio-trace -workload vpic -nodes 1 -steps 6 -mode async -faults "crashrank=3@95s" -checkpoint-every 2 -journal
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"asyncio/internal/cliflags"
	"asyncio/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "asyncio-trace: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole tool: flags → experiments.Run → the files asked for,
// the CSV on stdout unless -o names a file, the summary on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	workloads, systems, modes := experiments.RunNames()
	var (
		workload = fs.String("workload", "vpic", strings.Join(workloads, " | "))
		system   = fs.String("system", "summit", strings.Join(systems, " | "))
		nodes    = fs.Int("nodes", 16, "allocation size in nodes")
		mode     = fs.String("mode", "adaptive", strings.Join(modes, " | "))
		steps    = fs.Int("steps", 8, "epochs (checkpoints/time steps)")
		compute  = fs.Duration("compute", 30*time.Second, "computation phase per epoch")
		out      = fs.String("o", "", "output CSV path (default stdout)")
	)
	cf := cliflags.Register(fs)
	fs.Parse(args)

	k, err := cf.RunKnobs()
	if err != nil {
		return fmt.Errorf("-%w", err)
	}
	// An aborted run (injected crash, mid-run failure) still carries a
	// partial report: res is non-nil, its exports are flushed below, and
	// runErr then ends the process non-zero.
	res, runErr := experiments.Run(experiments.RunSpec{
		Workload: *workload, System: *system, Nodes: *nodes, Mode: *mode,
		Steps: *steps, Compute: *compute,
		CheckpointEvery: cf.CheckpointEvery, Journal: cf.Journal,
	}, k)
	if res == nil {
		return runErr
	}

	if *out == "" {
		if err := res.WriteTrace(stdout); err != nil {
			return fmt.Errorf("writing CSV: %w", err)
		}
	} else if err := cliflags.WriteFile(*out, "CSV", res.WriteTrace); err != nil {
		return err
	}
	if cf.TraceJSON != "" {
		if err := cliflags.WriteFile(cf.TraceJSON, "trace JSON", res.WritePerfetto); err != nil {
			return err
		}
	}
	if cf.MetricsCSV != "" {
		if err := cliflags.WriteFile(cf.MetricsCSV, "metrics CSV", res.WriteMetrics); err != nil {
			return err
		}
	}
	if err := cf.ExportProfile(res.Report.CritPath, stderr); err != nil {
		return fmt.Errorf("-critpath/-pprof: %w", err)
	}
	stderr.Write(res.Summary)
	return runErr
}
