// Command iomodel fits the paper's I/O-rate models to a trace CSV (as
// written by trace.WriteCSV) and reports the fitted coefficients, r²,
// and per-epoch estimates — the offline counterpart of the runtime
// feedback loop (Fig. 2 of the paper).
//
// Usage:
//
//	iomodel trace.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"asyncio/internal/model"
	"asyncio/internal/trace"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iomodel <trace.csv>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "iomodel: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole tool: the trace at path → the fitted models and the
// next-epoch estimate on out.
func run(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := trace.ReadCSV(f)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return errors.New("no records")
	}

	est := model.NewEstimator()
	var lastBytes int64
	var lastRanks int
	for _, r := range records {
		est.ObserveComp(r.CompTime)
		if r.Mode == trace.Sync {
			est.ObserveSyncIO(r.Bytes, r.Ranks, r.IOTime)
		} else {
			est.ObserveOverhead(r.Bytes, r.Ranks, r.IOTime)
		}
		lastBytes, lastRanks = r.Bytes, r.Ranks
	}

	fmt.Fprintf(out, "records: %d\n", len(records))
	if m, ok := est.SyncModel(); ok {
		fmt.Fprintf(out, "sync model:  %v  beta=%v  r²=%.3f  (n=%d)\n", m.Kind, m.Fit.Beta, m.R2(), m.N)
	} else {
		fmt.Fprintln(out, "sync model:  insufficient synchronous observations")
	}
	if m, ok := est.AsyncModel(); ok {
		fmt.Fprintf(out, "async model: %v  beta=%v  r²=%.3f  (n=%d)\n", m.Kind, m.Fit.Beta, m.R2(), m.N)
	} else {
		fmt.Fprintln(out, "async model: insufficient asynchronous observations")
	}
	if comp, ok := est.CompEstimate(); ok {
		fmt.Fprintf(out, "compute estimate (EWMA): %v\n", comp.Round(time.Millisecond))
	}
	if ee, ok := est.EstimateEpoch(lastBytes, lastRanks); ok {
		fmt.Fprintf(out, "next epoch (bytes=%d ranks=%d):\n", lastBytes, lastRanks)
		fmt.Fprintf(out, "  sync  (Eq. 2a): %v\n", ee.Sync.Round(time.Millisecond))
		fmt.Fprintf(out, "  async (Eq. 2b): %v\n", ee.Async.Round(time.Millisecond))
		fmt.Fprintf(out, "  advisor: use %s I/O", ee.Better())
		if ee.SlowdownRegion() {
			fmt.Fprintf(out, "  (slowdown region: overhead %v ≥ compute %v)",
				ee.Overhead.Round(time.Millisecond), ee.Comp.Round(time.Millisecond))
		}
		fmt.Fprintln(out)
	} else {
		fmt.Fprintln(out, "epoch estimate: needs observations from both I/O modes")
	}
	return nil
}
