package experiments

import (
	"testing"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/faults"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/vpicio"
)

// TestDegradationDemotesAndRepromotes is the end-to-end degradation
// scenario: an async VPIC-IO run hits a sustained GPFS outage, the
// background streams fall behind, the drain-queue watermark trips, the
// controller demotes to synchronous I/O, and after the target repairs
// and the queue drains it re-promotes. Every switch must be visible in
// the report and in the exported metrics series.
func TestDegradationDemotesAndRepromotes(t *testing.T) {
	// The healthy end-of-epoch backlog on this configuration is 180 ops
	// (each epoch's just-staged writes, drained during the next compute
	// phase); 200 only trips once the outage stalls the streams.
	in, err := faults.New("seed=3;outage=gpfs@30s+25s;retries=20;demote=200;healthy=2")
	if err != nil {
		t.Fatal(err)
	}
	sys := systems.Summit(vclock.New(), 2, systems.WithFaults(in))
	sys.Metrics.EnableSeries()
	rep, _, err := vpicio.Run(sys, vpicio.Config{
		Steps: 16, ComputeTime: 5 * time.Second, Mode: core.ForceAsync,
	})
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}

	var demote, promote *core.ModeSwitch
	for i := range rep.ModeSwitches {
		sw := &rep.ModeSwitches[i]
		switch {
		case sw.To == trace.Sync && demote == nil:
			demote = sw
		case sw.To == trace.Async && demote != nil && promote == nil:
			promote = sw
		}
	}
	if demote == nil {
		t.Fatalf("no demotion recorded; switches: %+v", rep.ModeSwitches)
	}
	if promote == nil {
		t.Fatalf("no re-promotion after demotion; switches: %+v", rep.ModeSwitches)
	}
	if promote.At <= demote.At {
		t.Errorf("promotion at %v not after demotion at %v", promote.At, demote.At)
	}
	if demote.At < 30*time.Second {
		t.Errorf("demoted at %v, before the outage began at 30s — wrong trigger", demote.At)
	}
	t.Logf("demoted at %v (%s), promoted at %v (%s)",
		demote.At, demote.Reason, promote.At, promote.Reason)

	// The demoted epochs must actually have run synchronously despite
	// the forced-async policy, and async must resume afterwards.
	sawSync, sawAsyncAfter := false, false
	for _, ep := range rep.Epochs {
		if ep.Epoch >= demote.Epoch && ep.Epoch < promote.Epoch && ep.Mode == trace.Sync {
			sawSync = true
		}
		if ep.Epoch >= promote.Epoch && ep.Mode == trace.Async {
			sawAsyncAfter = true
		}
	}
	if !sawSync {
		t.Error("no synchronous epoch recorded while degraded")
	}
	if !sawAsyncAfter {
		t.Error("no asynchronous epoch recorded after re-promotion")
	}

	// The switches must be visible in the exported metrics series:
	// core.degraded rises to 1 and returns to 0.
	g := rep.Metrics.FindGauge("core.degraded")
	if g == nil {
		t.Fatal("core.degraded gauge not registered")
	}
	series := g.Series()
	rose, fell := false, false
	for _, s := range series {
		if s.V == 1 {
			rose = true
		}
		if rose && s.V == 0 {
			fell = true
		}
	}
	if !rose || !fell {
		t.Errorf("core.degraded series %v never rose and fell", series)
	}
	if c := rep.Metrics.FindCounter("core.demotions"); c == nil || c.Value() < 1 {
		t.Error("core.demotions counter missing or zero")
	}
	if c := rep.Metrics.FindCounter("core.promotions"); c == nil || c.Value() < 1 {
		t.Error("core.promotions counter missing or zero")
	}
	if c := rep.Metrics.FindCounter(faults.MetricOutage); c == nil || c.Value() == 0 {
		t.Error("no outage rejections recorded — the outage never bit")
	}
}
