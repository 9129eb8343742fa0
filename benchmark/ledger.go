package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"asyncio/internal/vclock"
)

// ledger collects the per-layer metrics of one traced pass.
type ledger struct {
	metrics map[string]Metric
	scratch string
	tracer  *Tracer
	clients int
	// coverage is, per request class of the decomposed replay, the share
	// of the request span its children account for.
	coverage map[string]float64
}

func (l *ledger) put(name, unit string, value float64) {
	l.metrics[name] = Metric{Value: value, Unit: unit}
}

// cost is what a stretch of host execution consumed.
type cost struct {
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	events     int64
}

func (c cost) nsPer(n int) float64     { return float64(c.wall.Nanoseconds()) / float64(n) }
func (c cost) allocsPer(n int) float64 { return float64(c.mallocs) / float64(n) }
func (c cost) mbPerS(bytes int64) float64 {
	return float64(bytes) / 1e6 / c.wall.Seconds()
}

// meter reads the clock, the allocator and the event counter; stop
// returns what was consumed since start. It may be used from inside a
// simulated process to leave proc spawning and teardown out of a probe.
type meter struct {
	t0  time.Time
	ms0 runtime.MemStats
	ev0 int64
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.ev0 = vclock.TotalEvents()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() cost {
	wall := time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{
		wall:       wall,
		mallocs:    ms.Mallocs - m.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - m.ms0.TotalAlloc,
		events:     vclock.TotalEvents() - m.ev0,
	}
}

// measure meters one call.
func measure(fn func() error) (cost, error) {
	m := startMeter()
	err := fn()
	return m.stop(), err
}

// onClock runs fn as the only process of a bare clock and waits for the
// clock to drain.
func onClock(fn func(p *vclock.Proc) error) error {
	clk := vclock.New()
	var ferr error
	clk.Go("probe", func(p *vclock.Proc) { ferr = fn(p) })
	if err := clk.Wait(); err != nil {
		return err
	}
	return ferr
}

// probe is one fixed-count driver of one layer.
type probe struct {
	name string
	run  func(l *ledger) error
}

func allProbes() []probe {
	var ps []probe
	for _, group := range [][]probe{engineProbes(), ioProbes(), observabilityProbes(), storeProbes(), campaignProbes()} {
		ps = append(ps, group...)
	}
	return ps
}

// runLedger runs every probe, each under a span of its own.
func runLedger(l *ledger) error {
	root := l.tracer.Start("ledger", nil, 0)
	defer root.End()
	for _, p := range allProbes() {
		sp := l.tracer.Start("probe."+p.name, root, 0)
		err := p.run(l)
		sp.End()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// runTraced is the traced pass of one workload process. First the
// workload's own script: after the warm-up, one repetition with spans off
// and one with spans on, whose ratio is the tracing overhead; its outputs
// are checked exactly as in the untraced pass, and the process's peak RSS
// is read while the workload is still all it has run. Then the per-layer
// ledger.
func runTraced(rc *runCtx, out string) (*WorkloadResult, error) {
	rc.tracer = newTracer()
	rc.plan = []bool{false, true}
	if err := runWorkload(rc); err != nil {
		return nil, err
	}
	res := rc.result()
	res.TracedWallS = rc.reps[1].wall.Seconds()

	l := &ledger{metrics: make(map[string]Metric), scratch: rc.scratch, tracer: rc.tracer,
		clients: rc.clients, coverage: make(map[string]float64)}
	l.metrics["benchmark.workload.rss_peak_mb"] = res.Metrics["rss_peak_mb"]
	l.put("benchmark.trace_overhead.ratio", "ratio", rc.reps[1].wall.Seconds()/rc.reps[0].wall.Seconds())
	// The probes run under the default collector, from an empty heap.
	applyGC(&workloadDef{})
	debug.FreeOSMemory()
	if err := runLedger(l); err != nil {
		return nil, err
	}
	for class, share := range l.coverage {
		if share < 0.95 {
			res.Failed++
			res.Failures = append(res.Failures,
				fmt.Sprintf("replay of a %s request: spans cover %.1f%% of its wall time, want at least 95%%", class, 100*share))
		}
	}
	res.Correct = res.Failed == 0
	res.ReplayCoverage = l.coverage
	for name, m := range l.metrics {
		res.Metrics[name] = m
	}
	if out != "" {
		f, err := os.Create(strings.TrimSuffix(out, ".json") + ".trace.json")
		if err != nil {
			return nil, err
		}
		if err := writeChromeTrace(f, rc.tracer.Spans()); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
