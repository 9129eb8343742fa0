package experiments

import (
	"os"
	"testing"

	"asyncio/internal/pfs"
)

// TestRaceAtScale runs one VPIC-IO sweep point at 4096 ranks (128
// Cori-Haswell nodes, 32 ranks each) — both modes, through the parallel
// driver. At this rank count the engine multiplexes thousands of procs
// over one clock, which is exactly where a locking mistake in the
// batched-wakeup or pooled-timer paths would surface; CI runs it under
// -race. Gated behind ASYNCIO_SCALE_TEST because it simulates ~40× more
// ranks than the ordinary test matrix.
func TestRaceAtScale(t *testing.T) { raceAtScale(t, nil) }

// TestRaceAtScaleConsistency reruns the 4096-rank point with the POSIX
// consistency model and its checker enabled on every generated system:
// thousands of ranks recording writes into one oracle is exactly where
// a locking mistake in the checker's recorder would surface under
// -race. CI runs it in both halves of the race matrix.
func TestRaceAtScaleConsistency(t *testing.T) {
	sp, err := pfs.ParseConsistency("posix;check=1")
	if err != nil {
		t.Fatal(err)
	}
	raceAtScale(t, &RunKnobs{Consistency: sp})
}

// expensive reports whether ASYNCIO_SCALE_TEST asks for the expensive
// variant of a suite: the 4096-rank points here, and the full trial
// counts of the property and chaos suites (suiteTrials).
func expensive() bool { return os.Getenv("ASYNCIO_SCALE_TEST") != "" }

// suiteTrials is how many trials a 500- or 1,000-trial suite runs: all
// of them under ASYNCIO_SCALE_TEST=1 — which the CI step that names the
// suite sets — a tenth by default, so tier-1 stays under half a minute,
// and short under -short.
func suiteTrials(full, short int) int {
	switch {
	case testing.Short():
		return short
	case expensive():
		return full
	}
	return full / 10
}

func raceAtScale(t *testing.T, k *RunKnobs) {
	t.Helper()
	if !expensive() {
		t.Skip("set ASYNCIO_SCALE_TEST=1 to run the 4096-rank point")
	}
	sc := Scale{CoriNodes: []int{128}, SummitNodes: []int{128}, Steps: 2, Days: 1}
	d, err := SimulateSweep("fig3b", sc, k)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := AssembleSweep(d)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSeries(t, tab, "sync")
	if got := s.X[len(s.X)-1]; got != 4096 {
		t.Fatalf("expected the point to run at 4096 ranks, got %v", got)
	}
	a := mustSeries(t, tab, "async")
	if a.Y[len(a.Y)-1] <= s.Y[len(s.Y)-1] {
		t.Errorf("async rate %.2f ≤ sync rate %.2f at 4096 ranks; expected async to win",
			a.Y[len(a.Y)-1], s.Y[len(s.Y)-1])
	}
}
