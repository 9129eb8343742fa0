package experiments

import (
	"bytes"
	"testing"

	"asyncio/internal/core"
	"asyncio/internal/critpath"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/vpicio"
)

// TestAblationBlame runs the blame-attribution validation experiment at
// reduced scale; the generator itself errors when any of the profiler's
// promised properties fail.
func TestAblationBlame(t *testing.T) {
	tbl, err := AblationBlame(ReducedScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(tbl.Series))
	}
	for _, s := range tbl.Series {
		var total float64
		for _, y := range s.Y {
			total += y
		}
		if total < 0.97 || total > 1.0+1e-9 {
			t.Errorf("%s: category shares sum to %.4f, want ~1", s.Name, total)
		}
	}
}

// blameProfile runs one profiled VPIC-IO configuration and returns the
// profile's canonical JSON.
func blameProfile(t *testing.T) []byte {
	t.Helper()
	sys := systems.Summit(vclock.New(), 2, systems.WithCritPath(critpath.NewRecorder()))
	rep, _, err := vpicio.Run(sys, vpicio.Config{Steps: 3, Mode: core.ForceAsync})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CritPath == nil {
		t.Fatal("no profile")
	}
	b, err := rep.CritPath.MarshalBytes()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestCritpathRunDeterminism asserts the exported profile is a pure
// function of the run configuration: the full profile — categories,
// segments, phases, and the wait-for graph — is byte-identical between
// two runs, however the host scheduled their goroutines.
func TestCritpathRunDeterminism(t *testing.T) {
	first, second := blameProfile(t), blameProfile(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("profile JSON differs between two runs (%d vs %d bytes):\n--- first ---\n%s\n--- second ---\n%s",
			len(first), len(second), first, second)
	}
}
