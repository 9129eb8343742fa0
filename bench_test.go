// Benchmarks regenerating every table and figure of the paper at
// reduced scale (one bench per figure; see DESIGN.md's experiment
// index). Each bench reports the headline metrics of its figure via
// b.ReportMetric — e.g. the largest-scale synchronous and asynchronous
// aggregate bandwidths — so `go test -bench=.` doubles as a compact
// reproduction report. cmd/asyncio-bench -scale full runs the
// paper-scale sweeps.
package asyncio_test

import (
	"math"
	"testing"

	"asyncio/internal/experiments"
)

// runFig generates the figure once per bench iteration and reports the
// last point of the named series, in the table's Y units. For sweep
// figures only the simulations run inside the timed loop; the estimate
// fits and table assembly are invariant across iterations and happen
// once afterwards, so the bench measures the simulator rather than the
// regression code.
func runFig(b *testing.B, id string, metrics map[string]string) *experiments.Table {
	b.Helper()
	scale := experiments.ReducedScale()
	var tab *experiments.Table
	if isSweepFig(id) {
		var data *experiments.SweepData
		for i := 0; i < b.N; i++ {
			var err error
			data, err = experiments.SimulateSweep(id, scale, nil)
			if err != nil {
				b.Fatal(err)
			}
		}
		var err error
		tab, err = experiments.AssembleSweep(data)
		if err != nil {
			b.Fatal(err)
		}
	} else {
		gen := experiments.Registry()[id]
		if gen == nil {
			b.Fatalf("unknown experiment %q", id)
		}
		for i := 0; i < b.N; i++ {
			var err error
			tab, err = gen(scale, nil)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for series, metric := range metrics {
		s, ok := tab.SeriesByName(series)
		if !ok || len(s.Y) == 0 {
			b.Fatalf("%s: series %q missing", id, series)
		}
		b.ReportMetric(s.Y[len(s.Y)-1], metric)
	}
	return tab
}

func BenchmarkFig1Scenarios(b *testing.B) {
	runFig(b, "fig1", map[string]string{
		"sync epoch":  "sync_s",
		"async epoch": "async_s",
	})
}

func BenchmarkFig3aVPICWriteSummit(b *testing.B) {
	runFig(b, "fig3a", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig3bVPICWriteCori(b *testing.B) {
	runFig(b, "fig3b", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig3cBDCATSReadSummit(b *testing.B) {
	runFig(b, "fig3c", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig3dBDCATSReadCori(b *testing.B) {
	runFig(b, "fig3d", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig4aNyxSummit(b *testing.B) {
	runFig(b, "fig4a", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig4bNyxCori(b *testing.B) {
	runFig(b, "fig4b", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig4cCastroSummit(b *testing.B) {
	runFig(b, "fig4c", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig4dCastroCori(b *testing.B) {
	runFig(b, "fig4d", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig5CosmoflowSummit(b *testing.B) {
	runFig(b, "fig5", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig6EQSIMSummit(b *testing.B) {
	runFig(b, "fig6", map[string]string{
		"sync":  "sync_GBps",
		"async": "async_GBps",
	})
}

func BenchmarkFig7NyxOverlapCori(b *testing.B) {
	// Reports the application duration at the most checkpoint-heavy
	// configuration (1 step per compute phase) under both modes.
	gen := experiments.Registry()["fig7"]
	scale := experiments.ReducedScale()
	scale.CoriNodes = []int{2} // the sweep is over steps/phase, not nodes
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = gen(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"sync", "async"} {
		s, ok := tab.SeriesByName(name)
		if !ok {
			b.Fatalf("missing series %q", name)
		}
		b.ReportMetric(s.Y[0], name+"_dur_s")
	}
}

func BenchmarkFig8VPICVariability(b *testing.B) {
	// Reports the coefficient of variation of each mode across days —
	// the paper's point is async CV ≈ 0.
	gen := experiments.Registry()["fig8"]
	scale := experiments.ReducedScale()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = gen(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"sync", "async"} {
		s, _ := tab.SeriesByName(name)
		b.ReportMetric(cv(s.Y), name+"_cv")
	}
}

func BenchmarkModelAccuracy(b *testing.B) {
	scale := experiments.ReducedScale()
	var syncR2, asyncR2 float64
	for i := 0; i < b.N; i++ {
		var err error
		syncR2, asyncR2, err = experiments.R2Values(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(syncR2, "sync_r2")
	b.ReportMetric(asyncR2, "async_r2")
}

func BenchmarkMicroMemcpy(b *testing.B) {
	runFig(b, "micro-mem", map[string]string{
		"summit node": "summit_GBps",
		"cori node":   "cori_GBps",
	})
}

func BenchmarkMicroGPUTransfer(b *testing.B) {
	runFig(b, "micro-gpu", map[string]string{
		"pinned":   "pinned_GBps",
		"unpinned": "unpinned_GBps",
	})
}

func BenchmarkAblationZeroCopy(b *testing.B) {
	runFig(b, "abl-zerocopy", map[string]string{
		"with copy": "withcopy_io_s",
		"zero-copy": "zerocopy_io_s",
	})
}

func BenchmarkAblationFitKinds(b *testing.B) {
	runFig(b, "abl-fit", map[string]string{
		"measured": "measured_GBps",
	})
}

func BenchmarkAblationStaging(b *testing.B) {
	runFig(b, "abl-staging", map[string]string{
		"dram": "dram_GBps",
		"ssd":  "ssd_GBps",
	})
}

func isSweepFig(id string) bool {
	for _, s := range experiments.SweepIDs() {
		if s == id {
			return true
		}
	}
	return false
}

func cv(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	if mean == 0 {
		return 0
	}
	var v float64
	for _, y := range ys {
		v += (y - mean) * (y - mean)
	}
	v /= float64(len(ys))
	return math.Sqrt(v) / mean
}
