package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/perfetto"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/vpicio"
)

// asyncObservedRun executes a small async VPIC-IO run with series
// recording on and returns the report.
func asyncObservedRun(t *testing.T) *core.Report {
	t.Helper()
	clk := vclock.New()
	sys := systems.Summit(clk, 1) // 6 ranks
	sys.Metrics.EnableSeries()
	rep, _, err := vpicio.Run(sys, vpicio.Config{
		Steps:            2,
		ParticlesPerRank: 1 << 16,
		ComputeTime:      time.Second,
		Mode:             core.ForceAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("report carries no metrics registry")
	}
	return rep
}

// TestAsyncQueueDepthOverlapsThenDrains is the acceptance assertion for
// the observability layer: during an async run the background op queue
// is observably non-empty (that is the overlap the paper measures), and
// after the final drain it is exactly empty.
func TestAsyncQueueDepthOverlapsThenDrains(t *testing.T) {
	rep := asyncObservedRun(t)
	g := rep.Metrics.FindGauge("asyncvol.queue_depth")
	if g == nil {
		t.Fatalf("asyncvol.queue_depth not registered (have %v)", rep.Metrics.Names())
	}
	series := g.Series()
	if len(series) == 0 {
		t.Fatal("queue depth recorded no change points")
	}
	var peak float64
	for _, s := range series {
		if s.V > peak {
			peak = s.V
		}
	}
	if peak <= 0 {
		t.Fatalf("queue depth never positive during async run: %v", series)
	}
	if last := series[len(series)-1]; last.V != 0 {
		t.Fatalf("queue depth final sample = %+v, want 0 after drain", last)
	}
	if g.Value() != 0 {
		t.Fatalf("queue depth = %v after run, want 0", g.Value())
	}
	if enq := rep.Metrics.FindCounter("asyncvol.ops_enqueued"); enq == nil || enq.Value() == 0 {
		t.Fatal("no ops were enqueued on the background streams")
	}
	if dw := rep.Metrics.FindHistogram("asyncvol.drain_wait_seconds"); dw == nil || dw.Count() == 0 {
		t.Fatal("drain waits were not observed")
	}
}

// TestPerfettoExportHasDistinctTracks validates the exported JSON: it
// parses, and rank, background-stream, and PFS-target rows all exist as
// separate thread tracks.
func TestPerfettoExportHasDistinctTracks(t *testing.T) {
	rep := asyncObservedRun(t)
	var buf bytes.Buffer
	if err := perfetto.WriteProfile(&buf, rep.Spans, rep.Metrics, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	tracks := map[int]map[string]bool{}
	var counterSamples int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if tracks[ev.Pid] == nil {
				tracks[ev.Pid] = map[string]bool{}
			}
			tracks[ev.Pid][ev.Args["name"].(string)] = true
		}
		if ev.Ph == "C" {
			counterSamples++
		}
	}
	if n := len(tracks[1]); n != 6 {
		t.Fatalf("rank tracks = %d, want 6: %v", n, tracks[1])
	}
	if !tracks[1]["rank0"] || !tracks[1]["rank5"] {
		t.Fatalf("rank rows missing: %v", tracks[1])
	}
	if !tracks[2]["stream:asyncvol:rank0"] {
		t.Fatalf("background stream rows missing: %v", tracks[2])
	}
	if len(tracks[4]) == 0 {
		t.Fatal("no PFS target track")
	}
	if counterSamples == 0 {
		t.Fatal("no metric counter samples exported")
	}
}

// TestObservabilityOutputsAreDeterministic runs the same seed twice and
// requires byte-identical trace JSON and metrics CSV — goroutine
// scheduling must not leak into the exports.
func TestObservabilityOutputsAreDeterministic(t *testing.T) {
	render := func() (string, string) {
		rep := asyncObservedRun(t)
		var j, c bytes.Buffer
		if err := perfetto.WriteProfile(&j, rep.Spans, rep.Metrics, nil); err != nil {
			t.Fatal(err)
		}
		if err := rep.Metrics.WriteCSV(&c, "obs"); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render()
	j2, c2 := render()
	if j1 != j2 {
		t.Error("trace JSON differs between identical runs")
	}
	if c1 != c2 {
		t.Error("metrics CSV differs between identical runs")
	}
}

// TestRunObserverCollectsReports covers the knobs asyncio-bench uses to
// reach the runs a generator executes internally: with Workers forced
// to 1 the observer sees every report of the generator exactly once, in
// execution order (node counts ascending, sync before async), and
// Series reaches each run's registry. The crash sweep's restart runs
// are reports of the generator too.
func TestRunObserverCollectsReports(t *testing.T) {
	var got []*core.Report
	k := &RunKnobs{
		Series:   true,
		Workers:  1,
		Observer: func(rep *core.Report) { got = append(got, rep) },
	}
	sc := tinyScale()
	if _, err := Registry()["fig3a"](sc, k); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*len(sc.SummitNodes) {
		t.Fatalf("observer saw %d reports, want %d", len(got), 2*len(sc.SummitNodes))
	}
	for i, rep := range got {
		wantRanks := 6 * sc.SummitNodes[i/2]
		wantMode := []string{"sync", "async"}[i%2]
		if rep.Run.Ranks != wantRanks || string(rep.Run.Mode) != wantMode {
			t.Errorf("report %d is %d ranks %s, want %d ranks %s",
				i, rep.Run.Ranks, rep.Run.Mode, wantRanks, wantMode)
		}
		if !rep.Metrics.SeriesEnabled() {
			t.Errorf("report %d: Series did not reach the run's registry", i)
		}
		if len(rep.Spans) != wantRanks {
			t.Errorf("report %d has %d spans, want %d", i, len(rep.Spans), wantRanks)
		}
	}

	// Nothing is process-wide: a run outside the knobs is not observed.
	got = got[:0]
	if _, err := Registry()["fig3a"](sc, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("observer saw %d reports of a generator it was not given to", len(got))
	}

	// Crash trials: the crash run and the restart run both report.
	if _, err := CrashSweep(sc, k); err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("observer saw %d crash-sweep reports, want 12 (6 trials × crash + restart)", len(got))
	}
	for i := 0; i < len(got); i += 2 {
		if !got[i].Aborted || got[i+1].Aborted {
			t.Errorf("trial %d: aborted = %v, %v, want the crash run then its restart", i/2, got[i].Aborted, got[i+1].Aborted)
		}
	}
}
