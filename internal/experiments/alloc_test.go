package experiments

import (
	"runtime"
	"testing"

	"asyncio/internal/vclock"
)

// TestAllocBudgetFigures is the end-to-end allocation tripwire beside
// the per-layer budgets: a write sweep and a prefetch-read sweep at
// reduced scale, serial, in allocations per simulated event. The tree
// costs 4.19 and 4.45; before events were value-embedded and flow/task
// state recycled it cost 8.82 and 11.01, so a return to that path
// fails. Timing is not checked here — benchmark/ -compare gates it.
func TestAllocBudgetFigures(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const budget = 6.0
	for _, id := range []string{"fig3a", "fig3c"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ev0 := vclock.TotalEvents()
		if _, err := Registry()[id](ReducedScale(), &RunKnobs{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		events := vclock.TotalEvents() - ev0
		runtime.ReadMemStats(&after)
		if events == 0 {
			t.Fatalf("%s fired no simulator events", id)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(events)
		t.Logf("%s: %.2f allocations per event over %d events", id, per, events)
		if per > budget {
			t.Errorf("%s allocates %.2f objects per event, budget %.1f", id, per, budget)
		}
	}
}
