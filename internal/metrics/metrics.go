// Package metrics is the simulator's observability substrate: a registry
// of counters, gauges, and histograms whose observations are timestamped
// on the **virtual clock**, so a time series of background-queue depth or
// file-system utilization is meaningful even though a 12,288-rank run
// completes in milliseconds of wall time.
//
// Instruments record change points rather than being polled: every
// update appends (virtual time, value) to the instrument's series (when
// series recording is enabled), which is exactly the step function a
// counter track in a trace viewer wants. Updates from processes at the
// same virtual instant coalesce to one point holding the instant's final
// value.
//
// A registry bound to a clock (NewRegistry) is confined, like the clock,
// to the goroutine that calls Wait, and takes no lock. The wall-clock
// registry a service instruments itself with (NewRegistryWithNow) is
// updated by workers while an exporter reads it; it serialises every
// operation through one registry-wide mutex.
//
// All instrument methods are safe on a nil receiver and a nil *Registry
// returns nil instruments, so instrumented code records unconditionally
// — an uninstrumented subsystem pays only a nil check (the same pattern
// trace.Span uses).
//
// Determinism rules for writers (enforced by convention, asserted by the
// observability tests):
//
//   - Counter.Add and Gauge.Add are order-independent, so any number of
//     same-instant writers stay deterministic as long as Gauge deltas are
//     integral (float64 sums of integers are exact).
//   - Gauge.Set must have a single writer per instant (setup-time
//     configuration, or an OnChange hook of another gauge).
//   - Histogram statistics are computed from value-sorted samples, so
//     observation order never matters.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"

	"asyncio/internal/vclock"
)

// Kind identifies an instrument type.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Sample is one point of an instrument's virtual-time series.
type Sample struct {
	At time.Duration
	V  float64
}

// Registry holds one simulation's instruments, keyed by name. Construct
// with NewRegistry; the zero value and nil are usable as "no metrics".
type Registry struct {
	clk *vclock.Clock
	// nowFn, when non-nil, replaces clk as the time source. Services
	// that live on the wall clock rather than a simulation's virtual
	// clock (cmd/asyncio-serve instruments itself with a registry)
	// construct with NewRegistryWithNow.
	nowFn func() time.Duration

	// mu is nil on a clock-bound registry; see lock.
	mu     *sync.Mutex
	series bool
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry stamping observations with clk's
// virtual time. Series recording starts off (see EnableSeries); current
// values and histogram samples are always kept.
func NewRegistry(clk *vclock.Clock) *Registry {
	return &Registry{
		clk:    clk,
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// EnableSeries turns on change-point series recording for counters and
// gauges. Call before the run starts; points are only captured from then
// on.
func (r *Registry) EnableSeries() {
	if r == nil {
		return
	}
	r.series = true
}

// SeriesEnabled reports whether change-point series are being recorded.
func (r *Registry) SeriesEnabled() bool { return r != nil && r.series }

// lock serialises an operation on a wall-clock registry or one of its
// instruments; on a clock-bound registry it does nothing.
func (r *Registry) lock() {
	if r.mu != nil {
		r.mu.Lock()
	}
}

func (r *Registry) unlock() {
	if r.mu != nil {
		r.mu.Unlock()
	}
}

// NewRegistryWithNow returns a registry stamping observations with the
// given time source instead of a virtual clock — for long-running
// services that instrument themselves with the same counter/gauge/
// histogram substrate the simulator uses, but live on wall time.
// Typical use: a monotonic offset since process start, so exports stay
// meaningful without depending on absolute dates.
func NewRegistryWithNow(now func() time.Duration) *Registry {
	r := NewRegistry(nil)
	r.nowFn = now
	r.mu = new(sync.Mutex)
	return r
}

// now returns the registry's virtual time (0 for a nil registry).
func (r *Registry) now() time.Duration {
	if r == nil {
		return 0
	}
	if r.nowFn != nil {
		return r.nowFn()
	}
	if r.clk == nil {
		return 0
	}
	return r.clk.Now()
}

// Now exposes the registry's virtual time to exporters that need an
// end-of-run timestamp (0 for a nil registry).
func (r *Registry) Now() time.Duration { return r.now() }

// Counter returns (creating if needed) the named monotonically
// increasing counter. Nil registry returns nil — a no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{reg: r, name: name}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{reg: r, name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{reg: r, name: name}
		r.hists[name] = h
	}
	return h
}

// FindCounter returns the named counter, or nil if none is registered.
// Unlike Counter it never creates, so exporters can probe without
// polluting the registry.
func (r *Registry) FindCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	return r.counts[name]
}

// FindGauge returns the named gauge, or nil if none is registered.
func (r *Registry) FindGauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	return r.gauges[name]
}

// FindHistogram returns the named histogram, or nil if none is
// registered.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	return r.hists[name]
}

// Names returns all registered instrument names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	out := make([]string, 0, len(r.counts)+len(r.gauges)+len(r.hists))
	for n := range r.counts {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// series is the shared change-point recording behind counters and
// gauges.
type series struct {
	points []Sample
}

// record appends (at, v), coalescing same-instant updates to the
// instant's final value.
func (s *series) record(at time.Duration, v float64) {
	if n := len(s.points); n > 0 && s.points[n-1].At == at {
		s.points[n-1].V = v
		return
	}
	s.points = append(s.points, Sample{At: at, V: v})
}

// Counter is a monotonically increasing int64.
type Counter struct {
	reg  *Registry
	name string
	v    int64
	ser  series
}

// Add increments the counter by n (n < 0 is ignored — counters are
// monotone). No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	r := c.reg
	at := r.now()
	r.lock()
	c.v += n
	if r.series {
		c.ser.record(at, float64(c.v))
	}
	r.unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	c.reg.lock()
	defer c.reg.unlock()
	return c.v
}

// Series returns a copy of the recorded change points.
func (c *Counter) Series() []Sample {
	if c == nil {
		return nil
	}
	c.reg.lock()
	defer c.reg.unlock()
	return append([]Sample(nil), c.ser.points...)
}

// Gauge is a value that can go up and down. See the package comment for
// the determinism contract on Add vs Set.
type Gauge struct {
	reg  *Registry
	name string

	v        float64
	ser      series
	onChange func(at time.Duration, v float64)

	// Time-weighted accumulators, maintained on every update regardless
	// of series recording. area integrates the step function up to
	// lastAt; maxHeld tracks the largest value that persisted for a
	// nonzero interval (same-instant intermediates are never observed,
	// keeping concurrent same-instant Adds order-independent).
	area    float64
	lastAt  time.Duration
	maxHeld float64
}

// OnChange registers fn to run after every update with the post-update
// value. Use it to maintain a gauge derived from this one (e.g.
// effective bandwidth from an in-flight count): on a clock-bound
// registry the hook runs in value-update order, so the derived series
// coalesces deterministically. Register before the run; fn must not
// touch g itself.
func (g *Gauge) OnChange(fn func(at time.Duration, v float64)) {
	if g != nil {
		g.onChange = fn
	}
}

// Add shifts the gauge by d. Same-instant adds must use integral deltas
// to stay deterministic. No-op on nil.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.update(d, false)
	}
}

// Set replaces the gauge's value. Single writer per instant.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.update(v, true)
	}
}

func (g *Gauge) update(x float64, set bool) {
	r := g.reg
	at := r.now()
	r.lock()
	if at > g.lastAt {
		g.area += g.v * (at - g.lastAt).Seconds()
		if g.v > g.maxHeld {
			g.maxHeld = g.v
		}
		g.lastAt = at
	}
	if set {
		g.v = x
	} else {
		g.v += x
	}
	v := g.v
	if r.series {
		g.ser.record(at, v)
	}
	r.unlock()
	// The hook updates another gauge of the registry, so it runs with the
	// registry's mutex, if there is one, released.
	if g.onChange != nil {
		g.onChange(at, v)
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.reg.lock()
	defer g.reg.unlock()
	return g.v
}

// TimeWeightedStats summarizes the gauge's step function over [0, end]:
// the time-weighted mean, and the maximum value the gauge held for a
// nonzero interval (including the current value, which holds through
// end). end at or before the last update extends the horizon to the
// last update instead, and a zero horizon returns the current value as
// its own mean.
func (g *Gauge) TimeWeightedStats(end time.Duration) (mean, max float64) {
	if g == nil {
		return 0, 0
	}
	g.reg.lock()
	defer g.reg.unlock()
	max = g.maxHeld
	if g.v > max {
		max = g.v
	}
	area, horizon := g.area, g.lastAt
	if end > horizon {
		area += g.v * (end - horizon).Seconds()
		horizon = end
	}
	if horizon <= 0 {
		return g.v, max
	}
	return area / horizon.Seconds(), max
}

// Series returns a copy of the recorded change points.
func (g *Gauge) Series() []Sample {
	if g == nil {
		return nil
	}
	g.reg.lock()
	defer g.reg.unlock()
	return append([]Sample(nil), g.ser.points...)
}

// Histogram collects float64 observations and answers order-independent
// summary statistics. Samples are retained exactly; the workloads this
// simulator runs observe at most a few million points per run.
type Histogram struct {
	reg  *Registry
	name string

	samples []float64
}

// Observe records one value. NaN observations are dropped — they would
// poison every statistic. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.reg.lock()
	h.samples = append(h.samples, v)
	h.reg.unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	h.reg.lock()
	defer h.reg.unlock()
	return len(h.samples)
}

// HistSnapshot is an order-independent summary of a histogram.
type HistSnapshot struct {
	Count          int
	Min, Max, Mean float64
	P50, P95, P99  float64
}

// Snapshot computes the summary from value-sorted samples. An empty
// histogram snapshots to all zeros; a single sample is every quantile.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.reg.lock()
	sorted := append([]float64(nil), h.samples...)
	h.reg.unlock()
	if len(sorted) == 0 {
		return HistSnapshot{}
	}
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return HistSnapshot{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  sum / float64(len(sorted)),
		P50:   Quantile(sorted, 0.50),
		P95:   Quantile(sorted, 0.95),
		P99:   Quantile(sorted, 0.99),
	}
}

// Quantile returns the nearest-rank quantile of an already-sorted,
// non-empty sample set: the smallest value such that at least q of the
// mass is at or below it. q outside [0,1] is clamped; an empty slice
// returns 0.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
