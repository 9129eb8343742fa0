package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runAll is the whole benchmark as one command: every workload with
// tracing off, each in a fresh process of this binary (own heap, own
// peak RSS), then the traced pass of each. It prints every metric by
// name and unit, writes the results file and the span traces next to it,
// and fails if any output check failed.
func runAll(seed int64, seconds int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	scratch, err := makeScratch()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	file := &File{Schema: schemaVersion, Env: environment(seed, seconds), PerLayer: make(map[string]Metric)}
	if !file.Env.ParallelValid {
		fmt.Fprintln(os.Stderr, "benchmark: 1 CPU: serve_cold and serve_warm run one client against one worker; their numbers are recorded as not valid for comparison")
	}
	child := func(def workloadDef, traced bool) (*WorkloadResult, string, error) {
		tag := def.Name
		trace := "0"
		if traced {
			tag, trace = def.Name+".traced", "1"
		}
		resPath := filepath.Join(scratch, tag+".json")
		cmd := exec.Command(exe, "--workload", def.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", trace, "--out", resPath)
		cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
		fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s)\n", def.Name, trace)
		runErr := cmd.Run()
		b, err := os.ReadFile(resPath)
		if err != nil {
			return nil, "", fmt.Errorf("%s: no result (%v)", tag, runErr)
		}
		var res WorkloadResult
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, "", fmt.Errorf("%s: %w", tag, err)
		}
		return &res, strings.TrimSuffix(resPath, ".json") + ".trace.json", nil
	}

	correct := true
	for _, def := range workloadDefs {
		res, _, err := child(def, false)
		if err != nil {
			return err
		}
		correct = correct && res.Correct
		file.Workloads = append(file.Workloads, *res)
	}
	// The per-layer ledger is the same in every traced pass, so the five
	// passes give five samples of each row; the overhead row is the
	// workload's own.
	samples := make(map[string][]float64)
	units := make(map[string]string)
	for i, def := range workloadDefs {
		res, tracePath, err := child(def, true)
		if err != nil {
			return err
		}
		correct = correct && res.Correct
		for _, d := range perLayerDefs {
			m := res.Metrics[d.Name]
			switch d.Name {
			case "benchmark.trace_overhead.ratio":
				untraced := file.Workloads[i].Metrics["wall_s"].Value
				file.PerLayer["benchmark.trace_overhead."+def.Name+".ratio"] = Metric{Value: res.TracedWallS / untraced, Unit: d.Unit}
				continue
			case "benchmark.workload.rss_peak_mb":
				continue // the untraced process's rss_peak_mb is in the file already
			}
			samples[d.Name] = append(samples[d.Name], m.Value)
			units[d.Name] = m.Unit
		}
		file.Workloads[i].ReplayCoverage = res.ReplayCoverage
		file.Workloads[i].Failures = append(file.Workloads[i].Failures, res.Failures...)
		if out != "" {
			dst := strings.TrimSuffix(out, ".json") + "." + def.Name + ".trace.json"
			if err := copyFile(tracePath, dst); err != nil {
				return err
			}
		}
	}
	for name, vals := range samples {
		sum := summarize(vals)
		file.PerLayer[name] = Metric{Value: sum.Median, Unit: units[name], Summary: &sum}
	}

	printResults(os.Stdout, file)
	if out != "" {
		if err := writeJSONFile(out, file); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

func environment(seed int64, seconds int) Env {
	env := Env{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, ParallelValid: runtime.NumCPU() > 1,
	}
	// The driver's checkout is not a git repository; a developer's is.
	if root, err := checkoutRoot(); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(b))
		}
	}
	return env
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// printResults prints every metric by name and unit: the end-to-end rows
// of each workload, then the per-layer ledger.
func printResults(w io.Writer, f *File) {
	e := f.Env
	fmt.Fprintf(w, "commit %s  %s %s/%s  nproc %d  GOMAXPROCS %d  seed %d  seconds %d\n",
		e.Commit, e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.Seed, e.Seconds)
	for _, wl := range f.Workloads {
		fmt.Fprintf(w, "\n%s: gc %d%%, %d repetitions, %d operations, %d failed",
			wl.Name, wl.Env.GCPercent, wl.Env.Repetitions, wl.Attempted, wl.Failed)
		if wl.Env.Clients > 0 {
			fmt.Fprintf(w, ", clients=workers=%d", wl.Env.Clients)
		}
		if wl.EventsPerRep > 0 {
			fmt.Fprintf(w, ", %d events/repetition", wl.EventsPerRep)
		}
		if wl.ServedBytesPerRep > 0 {
			fmt.Fprintf(w, ", %d bytes/repetition", wl.ServedBytesPerRep)
		}
		fmt.Fprintln(w)
		for _, name := range sortedKeys(wl.Metrics) {
			printMetric(w, name, wl.Metrics[name])
		}
		for _, fail := range wl.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", fail)
		}
	}
	fmt.Fprintln(w, "\nper-layer ledger (median of the traced passes):")
	for _, name := range sortedKeys(f.PerLayer) {
		printMetric(w, name, f.PerLayer[name])
	}
}

func printMetric(w io.Writer, name string, m Metric) {
	fmt.Fprintf(w, "  %-46s %16.6g %-6s", name, m.Value, m.Unit)
	if s := m.Summary; s != nil {
		fmt.Fprintf(w, "  q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
	}
	if m.Percentile != 0 && m.Percentile != 50 {
		fmt.Fprintf(w, "  (p%g)", m.Percentile)
	}
	fmt.Fprintln(w)
}
