package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"asyncio/internal/vclock"
)

// processStart approximates "child start": package initialisation runs
// before main, a few milliseconds after exec.
var processStart = time.Now()

// repSample is what one repetition of a workload's fixed script measured.
type repSample struct {
	wall        time.Duration
	mallocs     uint64
	allocBytes  uint64
	events      int64     // simulated vclock events
	ops         int       // operations attempted: points or requests
	latencies   []float64 // seconds, one per operation
	servedBytes int64
	recover     time.Duration // serve_warm: store.Open → /readyz 200
	failures    []string
}

// runCtx is one workload process: its inputs, and the samples it
// gathers.
type runCtx struct {
	def     *workloadDef
	seed    int64
	seconds int
	scratch string // private directory inside the checkout
	clients int    // service workloads: clients = workers

	// tracer is nil when tracing is off. In the traced pass, plan says
	// which timed repetitions record spans and cur is the tracer of the
	// repetition now running (nil = off).
	tracer *Tracer
	plan   []bool
	cur    *Tracer

	// smoke, in tests, skips the warm-up and runs one repetition.
	smoke bool

	// wantEvents, when set, is the pinned event count every repetition
	// must reproduce exactly.
	wantEvents int64

	setup time.Duration
	reps  []repSample
}

// measureRep runs one repetition between two readings of the allocator
// and the event counter. It collects garbage first, so every repetition
// starts from the same heap: without that the peak RSS of a run under GC
// percent 400 depends on where the cycles happen to fall (147–260 MB over
// ten runs of sweep_write, 136–148 MB with it).
func measureRep(script func(s *repSample) error) (repSample, error) {
	var s repSample
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ev0 := vclock.TotalEvents()
	start := time.Now()
	err := script(&s)
	s.wall = time.Since(start)
	if len(s.latencies) == 0 {
		// No per-operation timing: the repetition is the timed operation.
		s.latencies = []float64{s.wall.Seconds()}
	}
	s.events = vclock.TotalEvents() - ev0
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	return s, err
}

// timedReps runs the warm-up repetition, marks the end of set-up, then
// runs the timed repetitions. The count is fixed by --seconds; a machine
// far slower than the reference stops early rather than overrun the
// driver's limits, but never before two repetitions.
func (rc *runCtx) timedReps(script func(s *repSample) error) error {
	if !rc.smoke {
		if _, err := measureRep(script); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	rc.setup = time.Since(processStart)
	n := rc.def.repetitions(rc.seconds)
	switch {
	case rc.smoke:
		n = 1
	case rc.plan != nil:
		n = len(rc.plan)
	}
	giveUp := time.Duration(float64(rc.seconds) * 1.6 * float64(time.Second))
	start := time.Now()
	for i := 0; i < n; i++ {
		if rc.plan == nil && i >= 2 && time.Since(start) > giveUp {
			break
		}
		rc.cur = nil
		if rc.plan != nil && rc.plan[i] {
			rc.cur = rc.tracer
		}
		s, err := measureRep(script)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", i+1, err)
		}
		rc.reps = append(rc.reps, s)
	}
	return nil
}

// result folds the repetitions into the end-to-end metrics. On a
// simulator workload an operation is one simulated point and an event
// one vclock event; on a service workload both are one HTTP request.
func (rc *runCtx) result() *WorkloadResult {
	res := &WorkloadResult{
		Name:    rc.def.Name,
		Seed:    rc.seed,
		Traced:  rc.tracer != nil,
		Metrics: make(map[string]Metric),
		Env: WorkloadEnv{
			GCPercent:   gcPercent(rc.def),
			Repetitions: len(rc.reps),
		},
	}
	if !rc.def.Sim {
		res.Env.Clients, res.Env.Workers = rc.clients, rc.clients
	}
	var wall, nsEv, allocsEv, bytesEv, rate, recov, lat []float64
	for i, s := range rc.reps {
		units := float64(s.events)
		if !rc.def.Sim {
			units = float64(s.ops)
		}
		res.Attempted += s.ops
		res.Failed += len(s.failures)
		for _, f := range s.failures {
			res.Failures = append(res.Failures, fmt.Sprintf("rep %d: %s", i+1, f))
		}
		wall = append(wall, s.wall.Seconds())
		nsEv = append(nsEv, float64(s.wall.Nanoseconds())/units)
		allocsEv = append(allocsEv, float64(s.mallocs)/units)
		bytesEv = append(bytesEv, float64(s.allocBytes)/units)
		rate = append(rate, float64(s.ops-len(s.failures))/s.wall.Seconds())
		lat = append(lat, s.latencies...)
		if s.recover > 0 {
			recov = append(recov, s.recover.Seconds())
		}
		if i == 0 {
			res.EventsPerRep, res.ServedBytesPerRep = s.events, s.servedBytes
		}
		if rc.wantEvents != 0 && s.events != rc.wantEvents {
			res.Failed++
			res.Failures = append(res.Failures,
				fmt.Sprintf("rep %d: %d events, pinned count is %d", i+1, s.events, rc.wantEvents))
		}
	}
	overReps := func(name, unit string, vals []float64) {
		sum := summarize(vals)
		res.Metrics[name] = Metric{Value: sum.Median, Unit: unit, Summary: &sum}
	}
	res.Metrics["setup_s"] = Metric{Value: rc.setup.Seconds(), Unit: "s"}
	overReps("wall_s", "s", wall)
	overReps("ns_per_event", "ns", nsEv)
	overReps("allocs_per_event", "count", allocsEv)
	overReps("alloc_bytes_per_event", "B", bytesEv)
	overReps("req_per_s", "1/s", rate)
	if len(recov) > 0 {
		overReps("recover_s", "s", recov)
	}
	// Latencies are pooled over the timed repetitions; the summary beside
	// each value is the same percentile taken one repetition at a time,
	// which is what -compare reads the spread from.
	sorted := sortedCopy(lat)
	pct, tail := tailPercentile(sorted, 99)
	var p50s, tails []float64
	for _, s := range rc.reps {
		one := sortedCopy(s.latencies)
		p50s = append(p50s, percentileSorted(one, 50)*1e3)
		tails = append(tails, percentileSorted(one, pct)*1e3)
	}
	p50Sum, tailSum := summarize(p50s), summarize(tails)
	res.Metrics["lat_p50_ms"] = Metric{Value: percentileSorted(sorted, 50) * 1e3, Unit: "ms", Summary: &p50Sum, Percentile: 50}
	res.Metrics["lat_p99_ms"] = Metric{Value: tail * 1e3, Unit: "ms", Summary: &tailSum, Percentile: pct}
	res.Metrics["fail_ratio"] = Metric{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "ratio"}
	res.Metrics["rss_peak_mb"] = Metric{Value: rssPeakMB(), Unit: "MB"}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func gcPercent(def *workloadDef) int {
	if def.Sim {
		return 400
	}
	return 100
}

// applyGC sets the collector the way the CLI the workload stands for
// does: asyncio-bench raises the target to 400, asyncio-serve leaves the
// default.
func applyGC(def *workloadDef) { debug.SetGCPercent(gcPercent(def)) }

// rssPeakMB reads the process's peak resident set (VmHWM) in MB. Where
// /proc is missing it falls back to the Go runtime's own footprint, so
// the metric is never zero.
func rssPeakMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// serviceClients is clients = workers = min(nproc, 4).
func serviceClients() int { return min(runtime.NumCPU(), 4) }
