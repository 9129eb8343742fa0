package main

import (
	"testing"
	"time"
)

// TestLedgerSmoke runs every probe once and checks that together they
// produce exactly the declared per-layer metrics (less the two rows the
// traced workload itself adds), each a positive finite number under a
// name and unit inside the contract's charset.
func TestLedgerSmoke(t *testing.T) {
	l := &ledger{metrics: make(map[string]Metric), scratch: t.TempDir(), tracer: newTracer(),
		clients: 2, coverage: make(map[string]float64)}
	for _, p := range allProbes() {
		start := time.Now()
		if err := p.run(l); err != nil {
			t.Fatalf("probe %s: %v", p.name, err)
		}
		t.Logf("%-28s %v", p.name, time.Since(start).Round(time.Millisecond))
	}
	l.put("benchmark.trace_overhead.ratio", "ratio", 1)
	l.put("benchmark.workload.rss_peak_mb", "MB", rssPeakMB())
	if err := validateMetrics(l.metrics, perLayerDefs); err != nil {
		t.Error(err)
	}
	for _, name := range sortedKeys(l.metrics) {
		m := l.metrics[name]
		t.Logf("%-44s %14.4f %s", name, m.Value, m.Unit)
		if !(m.Value > 0) || m.Value != m.Value+0 || m.Value > 1e15 {
			t.Errorf("%s = %v: want a positive finite number", name, m.Value)
		}
	}
	for class, share := range l.coverage {
		t.Logf("replay coverage %-10s %.3f", class, share)
		if share < 0.95 {
			t.Errorf("replay of a %s request: spans cover %.3f of it, want at least 0.95", class, share)
		}
	}
}
