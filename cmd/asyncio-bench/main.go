// Command asyncio-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	asyncio-bench -list
//	asyncio-bench -exp fig3a
//	asyncio-bench -exp all -scale reduced
//	asyncio-bench -exp fig8 -scale full
//
// Every experiment prints an aligned text table with the same series
// the paper plots (measured sync/async plus the model's estimates).
// The full scale reproduces the paper's node counts — up to 2,048
// Summit nodes (12,288 ranks) — and takes minutes; the reduced scale
// finishes in seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"time"

	"asyncio/internal/cliflags"
	"asyncio/internal/core"
	"asyncio/internal/experiments"
	"asyncio/internal/perfetto"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list) or \"all\"")
		scale    = flag.String("scale", "reduced", "sweep scale: reduced or full")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		timings  = flag.Bool("timings", false, "print wall-clock time per experiment")
		parallel = flag.Int("parallel", 0, "workers for independent experiment points (0 = GOMAXPROCS, 1 = serial)")
	)
	cf := cliflags.Register(flag.CommandLine)
	flag.Parse()

	// The simulator is allocation-heavy and latency-insensitive; a high
	// GC target trades heap headroom for a large wall-clock win on the
	// big sweeps. An explicit GOGC still takes precedence.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	k, err := cf.RunKnobs()
	if err != nil {
		fatalf("-%v", err)
	}
	// The durability flags parameterize the crash experiments'
	// write-back model; the per-run checkpoint/journal switches belong to
	// asyncio-trace (crash sweeps schedule checkpoints themselves).
	if cf.WantDurability() {
		fatalf("-checkpoint-every/-journal configure a single run; use asyncio-trace (crash experiments sweep checkpoint intervals themselves)")
	}
	k.Workers = *parallel
	// Experiments construct their systems (and so their registries)
	// internally; the observer collects each completed run's report so
	// observability data can be exported without touching every
	// experiment. The observer's report order is part of the output
	// (metrics CSV labels, "last run" trace selection), so observed
	// generation forces serial sweeps regardless of -parallel.
	var reports []*core.Report
	if cf.WantObservability() {
		k.Observer = func(rep *core.Report) { reports = append(reports, rep) }
		k.Workers = 1
	}
	sc := parseScale(*scale)

	reg := experiments.Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: asyncio-bench -exp <id>|all [-scale reduced|full]")
		fmt.Fprintln(os.Stderr, "known experiments:", ids)
		os.Exit(2)
	}

	run := ids
	if *exp != "all" {
		if reg[*exp] == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", *exp, ids)
			os.Exit(2)
		}
		run = []string{*exp}
	}

	for _, id := range run {
		start := time.Now()
		tab, err := reg[id](sc, k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		if err := tab.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: rendering: %v\n", id, err)
			os.Exit(1)
		}
		if *timings {
			fmt.Printf("(%s generated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}

	if cf.MetricsCSV != "" {
		err := cliflags.WriteFile(cf.MetricsCSV, "metrics CSV", func(w io.Writer) error {
			for i, rep := range reports {
				label := fmt.Sprintf("run%03d-%s-%s-%s-%dr", i, rep.Run.Workload, rep.Run.System, rep.Run.Mode, rep.Run.Ranks)
				if err := rep.Metrics.WriteCSV(w, label); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			fatalf("%v", err)
		}
	}
	if cf.TraceJSON != "" {
		if len(reports) == 0 {
			fatalf("-trace-json: no runs were observed")
		}
		last := reports[len(reports)-1]
		err := cliflags.WriteFile(cf.TraceJSON, "trace JSON", func(w io.Writer) error {
			return perfetto.WriteProfile(w, last.Spans, last.Metrics, last.CritPath)
		})
		if err != nil {
			fatalf("%v", err)
		}
	}
	if cf.WantCritPath() {
		if len(reports) == 0 {
			fatalf("-critpath/-pprof: no runs were observed")
		}
		if err := cf.ExportProfile(reports[len(reports)-1].CritPath, os.Stdout); err != nil {
			fatalf("-critpath/-pprof: %v", err)
		}
	}
}

// parseScale resolves the -scale flag; an unknown name is a usage error.
func parseScale(name string) experiments.Scale {
	switch name {
	case "reduced":
		return experiments.ReducedScale()
	case "full":
		return experiments.FullScale()
	}
	fmt.Fprintf(os.Stderr, "unknown scale %q (want reduced or full)\n", name)
	os.Exit(2)
	return experiments.Scale{}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asyncio-bench: "+format+"\n", args...)
	os.Exit(1)
}
