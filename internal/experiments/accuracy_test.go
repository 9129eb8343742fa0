package experiments

import (
	"testing"

	"asyncio/internal/stats"
)

// TestModelAccuracy holds the model to the paper's §V-C accuracy claims
// on the two figure configurations that exercise both estimate kinds:
// fig3a (global regression fits over the VPIC-IO weak-scaling sweep) and
// fig5 (per-configuration run-history estimates for Cosmoflow reads).
// The thresholds are the paper's: r² ≥ 0.80 for synchronous I/O and
// ≥ 0.90 for the asynchronous staging rate.
func TestModelAccuracy(t *testing.T) {
	sc := ReducedScale()

	syncR2, asyncR2, err := R2Values(sc, nil)
	if err != nil {
		t.Fatalf("fig3a fits: %v", err)
	}
	t.Logf("fig3a regression: sync r²=%.3f async r²=%.3f", syncR2, asyncR2)
	if syncR2 < 0.80 {
		t.Errorf("fig3a sync r² = %.3f, want ≥ 0.80", syncR2)
	}
	if asyncR2 < 0.90 {
		t.Errorf("fig3a async r² = %.3f, want ≥ 0.90", asyncR2)
	}

	tab, err := Registry()["fig5"](sc, nil)
	if err != nil {
		t.Fatalf("fig5: %v", err)
	}
	seriesR2 := func(meas, est string) float64 {
		m, okM := tab.SeriesByName(meas)
		e, okE := tab.SeriesByName(est)
		if !okM || !okE {
			t.Fatalf("fig5 table missing series %q/%q", meas, est)
		}
		return stats.R2(e.Y, m.Y)
	}
	fig5Sync := seriesR2("sync", "sync est")
	fig5Async := seriesR2("async", "async est")
	t.Logf("fig5 history estimates: sync r²=%.3f async r²=%.3f", fig5Sync, fig5Async)
	if fig5Sync < 0.80 {
		t.Errorf("fig5 sync r² = %.3f, want ≥ 0.80", fig5Sync)
	}
	if fig5Async < 0.90 {
		t.Errorf("fig5 async r² = %.3f, want ≥ 0.90", fig5Async)
	}
}
