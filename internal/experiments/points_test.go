package experiments

import (
	"bytes"
	"testing"
)

// TestSweepPointParityFig3a pins the campaign service's point-level path
// to the CLI path: simulating the fig3a sweep one point at a time with
// SimulateSweepPoint and reassembling with AssembleSweepPoints must
// render byte-identically to the registry generator cmd/asyncio-bench
// runs (SimulateSweep + AssembleSweep under RunParallel).
func TestSweepPointParityFig3a(t *testing.T) {
	const id = "fig3a"
	scale := ReducedScale()

	gen := Registry()[id]
	if gen == nil {
		t.Fatalf("figure %q not registered", id)
	}
	cliTab, err := gen(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := cliTab.Render(&cli); err != nil {
		t.Fatal(err)
	}

	n, err := SweepPointCount(id, scale)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*len(scale.SummitNodes) {
		t.Fatalf("SweepPointCount = %d, want %d", n, 2*len(scale.SummitNodes))
	}
	// One point at a time, serially, under explicit zero-value knobs —
	// the way a campaign worker computes (or caches) them.
	halves := make([]SweepPoint, n)
	for i := 0; i < n; i++ {
		p, err := SimulateSweepPoint(id, scale, i, &RunKnobs{})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		halves[i] = p
	}
	data, err := AssembleSweepPoints(id, scale, halves)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := AssembleSweep(data)
	if err != nil {
		t.Fatal(err)
	}
	var pts bytes.Buffer
	if err := tab.Render(&pts); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(cli.Bytes(), pts.Bytes()) {
		t.Errorf("per-point assembly drifted from the CLI sweep path.\n--- sweep ---\n%s\n--- points ---\n%s",
			cli.Bytes(), pts.Bytes())
	}
}

// TestSweepPointErrors covers the typed failure modes of the point API.
func TestSweepPointErrors(t *testing.T) {
	scale := ReducedScale()
	if _, err := SweepPointCount("fig8", scale); err == nil {
		t.Error("SweepPointCount accepted a non-sweep figure")
	}
	if _, err := SimulateSweepPoint("nope", scale, 0, nil); err == nil {
		t.Error("SimulateSweepPoint accepted an unknown figure")
	}
	if _, err := SimulateSweepPoint("fig3a", scale, 999, nil); err == nil {
		t.Error("SimulateSweepPoint accepted an out-of-range index")
	}
	if _, err := AssembleSweepPoints("fig3a", scale, make([]SweepPoint, 3)); err == nil {
		t.Error("AssembleSweepPoints accepted a short point list")
	}
}
