package experiments

import (
	"fmt"

	"asyncio/internal/core"
	"asyncio/internal/faults"
	"asyncio/internal/systems"
)

// FaultSweep measures how injected storage faults erode the paper's
// headline async-vs-sync comparison: VPIC-IO on Summit under increasing
// transient-error rates on every storage target, with the retry stage
// absorbing the failures. Synchronous rates pay every retry's backoff
// inside the blocking I/O phase; asynchronous rates hide the retries in
// the background stream until the staging pipeline itself saturates.
func FaultSweep(scale Scale, k *RunKnobs) (*Table, error) {
	nodes := scale.SummitNodes[0]
	if len(scale.SummitNodes) > 1 {
		nodes = scale.SummitNodes[1]
	}
	rates := []float64{0, 0.02, 0.05, 0.1, 0.2}
	t := &Table{
		ID:     "faultsweep",
		Title:  fmt.Sprintf("VPIC-IO under injected transient I/O errors, Summit (%d nodes)", nodes),
		XLabel: "error rate", YLabel: "GB/s",
	}
	// Every (rate, mode) run is independent — its own seeded injector,
	// clock, and system — so the sweep fans out through RunParallel with
	// results and retry counts stored by index; the per-rate notes are
	// then emitted in order, identical to the serial sweep.
	type point struct {
		rate    float64
		retries int64
	}
	points := make([]point, 2*len(rates))
	err := RunParallel(k, len(points), func(i int) error {
		rate := rates[i/2]
		mode := core.ForceSync
		if i%2 == 1 {
			mode = core.ForceAsync
		}
		in, err := faults.New(fmt.Sprintf("seed=11;err=*:%g;retries=10", rate))
		if err != nil {
			return err
		}
		sys := k.newSystem("summit", nodes, systems.WithFaults(in))
		rep, err := vpicRun(sys, scale.Steps, mode)
		if err != nil {
			return fmt.Errorf("faultsweep rate=%g %v: %w", rate, mode, err)
		}
		points[i].rate = gb(rep.Run.PeakRate())
		if c := sys.Metrics.FindCounter(faults.MetricRetries); c != nil {
			points[i].retries = c.Value()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var xs, syncY, asyncY []float64
	for ri, rate := range rates {
		xs = append(xs, rate)
		syncY = append(syncY, points[2*ri].rate)
		asyncY = append(asyncY, points[2*ri+1].rate)
		if rate > 0 {
			t.note("rate %g: %d sync / %d async retries absorbed",
				rate, points[2*ri].retries, points[2*ri+1].retries)
		}
	}
	t.Series = []Series{
		{Name: "sync", X: xs, Y: syncY},
		{Name: "async", X: xs, Y: asyncY},
	}
	t.note("seeded per-op draws; each failed op retries with capped exponential backoff (50 ms × 2ⁿ)")
	return t, nil
}
