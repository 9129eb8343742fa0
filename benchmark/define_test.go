package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json, define.go and README.md state the same contract.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "-C", "benchmark", "."}; strings.Join(bj.Command, " ") != strings.Join(want, " ") {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, define.go says %d", bj.RunSeconds, defaultSeconds)
	}

	names := make(map[string]bool)
	unique := func(kind, name string) {
		if names[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		names[name] = true
		if !metricNameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's charset", kind, name)
		}
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in define.go", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		unique("workload", w.Name)
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d = %q %q, define.go has %q %q", i, w.Name, w.Why, d.Name, d.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in define.go", len(bj.EndToEnd), len(endToEndDefs))
	}
	setup := false
	for i, m := range bj.EndToEnd {
		unique("end-to-end", m.Name)
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d = %+v, define.go has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %s: bound %v unit %q outside the contract", m.Name, m.Bound, m.Unit)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayerDefs) || len(perLayerDefs) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in define.go (limit 128)", len(bj.PerLayer), len(perLayerDefs))
	}
	for i, m := range bj.PerLayer {
		unique("per-layer", m.Name)
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d = %+v, define.go has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q outside the contract", m.Name, m.Unit, m.Better)
		}
		if d.Moves == "" {
			t.Errorf("per-layer %s has no written prediction", m.Name)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range names {
		if !bytes.Contains(readme, []byte("`"+name+"`")) {
			t.Errorf("README.md does not mention `%s`", name)
		}
	}
	for _, d := range perLayerDefs {
		if !bytes.Contains(readme, []byte(d.Moves)) {
			t.Errorf("README.md lacks the prediction for %s: %q", d.Name, d.Moves)
		}
	}
}

// The two figures of sweep_write are pinned twice: here, so the command
// can check itself anywhere, and as goldens of the experiments package.
// They must be the same bytes.
func TestExpectedTablesAreTheRepositoryGoldens(t *testing.T) {
	for _, fig := range []string{"fig3a", "fig3b"} {
		mine, err := expectedFS.ReadFile("expected/" + fig + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("..", "internal", "experiments", "testdata", "golden_"+fig+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mine, golden) {
			t.Errorf("expected/%s.txt differs from the experiments golden", fig)
		}
	}
	for _, def := range workloadDefs {
		if !def.Sim {
			continue
		}
		if n, err := expectedEvents(def.Name); err != nil || n <= 0 {
			t.Errorf("pinned event count of %s: %d, %v", def.Name, n, err)
		}
		for _, tab := range simTables(def.Name) {
			if b, err := expectedFS.ReadFile("expected/" + tab.Expected); err != nil || len(b) == 0 {
				t.Errorf("expected/%s: %v", tab.Expected, err)
			}
		}
	}
}
