// Package simbench benchmarks the simulator itself — not the simulated
// systems. It times the virtual-clock engine on synthetic schedules and
// the figure generators end to end, reporting wall-clock, simulator
// events/second, ns/event, and allocations/event. The numbers feed the
// committed BENCH_simulator.json baseline that TestBenchRegression
// guards, and `asyncio-bench -selfbench` regenerates.
package simbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"asyncio/internal/experiments"
	"asyncio/internal/vclock"
)

// Case is one self-benchmark: a named closure exercising the simulator.
type Case struct {
	Name string
	Run  func() error
}

// Result is the measurement of one Case.
type Result struct {
	Name           string  `json:"name"`
	WallSeconds    float64 `json:"wall_seconds"`
	Events         int64   `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

// Report is the full self-benchmark output, annotated with enough
// environment to interpret the numbers.
type Report struct {
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Parallelism int      `json:"parallelism"`
	Results     []Result `json:"results"`
}

// Measure runs one case and derives its per-event metrics from the
// process-wide vclock event counter and allocator statistics.
func Measure(c Case) (Result, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev0 := vclock.TotalEvents()
	start := time.Now()
	if err := c.Run(); err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	wall := time.Since(start)
	events := vclock.TotalEvents() - ev0
	runtime.ReadMemStats(&after)
	r := Result{
		Name:        c.Name,
		WallSeconds: wall.Seconds(),
		Events:      events,
	}
	if events > 0 {
		r.EventsPerSec = float64(events) / wall.Seconds()
		r.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		r.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		r.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	}
	return r, nil
}

// EngineCases are synthetic schedules hitting only internal/vclock —
// the pure event-engine cost, free of workload modeling.
func EngineCases() []Case {
	return []Case{
		{Name: "engine-sleep", Run: func() error {
			// One proc, a long chain of sleeps: the hot Sleep/advance path.
			clk := vclock.New()
			clk.Go("sleeper", func(p *vclock.Proc) {
				for i := 0; i < 200_000; i++ {
					p.Sleep(time.Microsecond)
				}
			})
			return clk.Wait()
		}},
		{Name: "engine-fanout", Run: func() error {
			// Many procs waking at the same instants: the batched-wakeup path.
			clk := vclock.New()
			for g := 0; g < 64; g++ {
				clk.Go(fmt.Sprintf("p%d", g), func(p *vclock.Proc) {
					for i := 0; i < 2_000; i++ {
						p.Sleep(time.Microsecond)
					}
				})
			}
			return clk.Wait()
		}},
		{Name: "engine-timers", Run: func() error {
			// Callback timers with a live cancellation mix: the pooled
			// entry + heap.Remove path.
			clk := vclock.New()
			clk.Go("driver", func(p *vclock.Proc) {
				for i := 0; i < 100_000; i++ {
					keep := p.Clock().AfterFunc(time.Microsecond, func(time.Duration) {})
					drop := p.Clock().AfterFunc(time.Millisecond, func(time.Duration) {})
					drop.Stop()
					_ = keep
					p.Sleep(time.Microsecond)
				}
			})
			return clk.Wait()
		}},
		{Name: "engine-4096", Run: func() error {
			// 4096 procs with staggered sleep periods: every advance
			// window is a different-sized wake batch, so the measurement
			// covers both dense and sparse instants at figure-run width.
			clk := vclock.New()
			for i := 0; i < 4096; i++ {
				step := time.Duration(1+i%7) * time.Microsecond
				clk.Go(fmt.Sprintf("p%d", i), func(p *vclock.Proc) {
					for k := 0; k < 50; k++ {
						p.Sleep(step)
					}
				})
			}
			return clk.Wait()
		}},
	}
}

// FigureCases wraps figure generators from the experiments registry at
// the given scale and knobs. Unknown ids are skipped (the registry owns the id
// space; callers pass a stable subset).
func FigureCases(scale experiments.Scale, k *experiments.RunKnobs, ids []string) []Case {
	reg := experiments.Registry()
	var cases []Case
	for _, id := range ids {
		gen, ok := reg[id]
		if !ok {
			continue
		}
		cases = append(cases, Case{
			Name: "fig-" + id,
			Run: func() error {
				_, err := gen(scale, k)
				return err
			},
		})
	}
	return cases
}

// DefaultFigureIDs is the stable subset of figures the baseline tracks:
// a weak-scaling write sweep, a prefetch-read sweep, the steps sweep,
// and the fault sweep — together they cover the request pipeline, the
// staging engine, the estimator, and fault retries.
func DefaultFigureIDs() []string {
	return []string{"fig3a", "fig3c", "fig7", "faultsweep"}
}

// Run measures the engine cases plus the default figure cases at the
// given scale and knobs and assembles the Report. Unless GOGC is set explicitly
// it measures under the same GC target the CLI uses (400), so numbers
// from `go test` and from `asyncio-bench -selfbench` are comparable.
func Run(scale experiments.Scale, k *experiments.RunKnobs) (*Report, error) {
	if os.Getenv("GOGC") == "" {
		defer debug.SetGCPercent(debug.SetGCPercent(400))
	}
	rep := &Report{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: k.Parallelism(),
	}
	cases := append(EngineCases(), FigureCases(scale, k, DefaultFigureIDs())...)
	for _, c := range cases {
		r, err := Measure(c)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON (the BENCH_simulator.json
// format).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a report previously written by WriteJSON.
func ReadJSON(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Find returns the named result, or nil.
func (r *Report) Find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}
