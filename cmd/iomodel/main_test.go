package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asyncio/internal/experiments"
)

// traceCSV is one small run's per-epoch CSV, as asyncio-trace -o writes
// it.
func traceCSV(t *testing.T, workload, mode string, nodes int) string {
	t.Helper()
	res, err := experiments.Run(experiments.RunSpec{
		Workload: workload, System: "summit", Nodes: nodes, Mode: mode, Steps: 3, Compute: time.Second,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// fit runs the tool on csv and returns what it printed.
func fit(t *testing.T, csv string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(path, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// body drops a CSV's header line, so traces concatenate into one.
func body(csv string) string { return csv[strings.IndexByte(csv, '\n')+1:] }

// TestFitsTwoModeTrace is the offline feedback loop end to end: a history
// holding both modes yields both models and the advisor's verdict. Within
// one run every observation has the same size and rank count, so the fit
// is the mean rate; a strong-scaling history (Nyx: one problem size, two
// allocations) varies ranks against a fixed size and the regressions
// engage — Eq. 4 on the asynchronous side, linear-log on the synchronous.
func TestFitsTwoModeTrace(t *testing.T) {
	got := fit(t, traceCSV(t, "vpic", "sync", 2)+body(traceCSV(t, "vpic", "async", 2)))
	for _, want := range []string{
		"records: 6\n",
		"sync model:  mean-rate  beta=[]  r²=0.000  (n=3)\n",
		"async model: mean-rate  beta=[]  r²=0.000  (n=3)\n",
		"  advisor: use async I/O\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("one run per mode: output lacks %q:\n%s", want, got)
		}
	}

	got = fit(t, traceCSV(t, "nyx", "sync", 2)+body(traceCSV(t, "nyx", "async", 2))+
		body(traceCSV(t, "nyx", "sync", 4))+body(traceCSV(t, "nyx", "async", 4)))
	for _, want := range []string{
		"records: 12\n",
		"sync model:  linear-log(ranks)  beta=[",
		"async model: linear(size,ranks)  beta=[",
		"(n=6)\n",
		"next epoch (bytes=536870912 ranks=24):\n",
		"  advisor: use async I/O\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("two allocations: output lacks %q:\n%s", want, got)
		}
	}
}

// TestSingleModeTraceHasNoAdvice pins the other branch: with one mode
// observed there is a model for it and no estimate to advise from.
func TestSingleModeTraceHasNoAdvice(t *testing.T) {
	got := fit(t, traceCSV(t, "vpic", "sync", 2))
	for _, want := range []string{
		"async model: insufficient asynchronous observations\n",
		"epoch estimate: needs observations from both I/O modes\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
