package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	updateExpected = flag.Bool("update-expected", false, "rewrite expected/ from the current code instead of checking against it")
	updateContract = flag.Bool("update-contract", false, "rewrite ../BENCHMARK.json from define.go")
)

func TestMain(m *testing.M) {
	flag.Parse()
	if *updateContract {
		if err := writeContract(filepath.Join("..", "BENCHMARK.json")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *updateExpected {
		if err := writeExpected("expected"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The embedded copy is the old one until the next build.
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeContract renders define.go as BENCHMARK.json.
func writeContract(path string) error {
	type row map[string]any
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}{Command: []string{"go", "run", "-C", "benchmark", "."}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, row{"name": w.Name, "why": w.Why})
	}
	for _, m := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, row{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, row{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	return writeJSONFile(path, doc)
}

// writeExpected regenerates expected/ from the code as it is now. It is
// for the change that alters the model on purpose; the diff of the
// rendered tables is then the review.
func writeExpected(dir string) error {
	var events strings.Builder
	for _, def := range workloadDefs {
		if !def.Sim {
			continue
		}
		tables := simTables(def.Name)
		script, err := simScript(tables, 1)
		if err != nil {
			return err
		}
		s, err := measureRep(func(s *repSample) error {
			got, err := simRepetition(tables, script, nil, s)
			if err != nil {
				return err
			}
			if len(s.failures) > 0 {
				return fmt.Errorf("%s: %s", def.Name, s.failures[0])
			}
			for t, tab := range tables {
				if err := os.WriteFile(filepath.Join(dir, tab.Expected), got[t], 0o644); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(&events, "%s %d\n", def.Name, s.events)
	}
	return os.WriteFile(filepath.Join(dir, "events.txt"), []byte(events.String()), 0o644)
}

// TestSmokeWorkloads runs one repetition of every workload, without the
// warm-up, through the same code as the command, and validates what the
// driver would read: every declared end-to-end metric, nothing else,
// names and units inside the charset, every output check passed.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("one repetition of all five workloads takes about 20 s")
	}
	for _, def := range workloadDefs {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			applyGC(&def)
			defer applyGC(&workloadDef{})
			rc := &runCtx{def: &def, seed: 5, seconds: 1, scratch: t.TempDir(), clients: 2, smoke: true}
			if err := runWorkload(rc); err != nil {
				t.Fatal(err)
			}
			res := rc.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Env.Repetitions != 1 {
				t.Errorf("correct=%v attempted=%d failed=%d repetitions=%d: %v",
					res.Correct, res.Attempted, res.Failed, res.Env.Repetitions, res.Failures)
			}
			line := driverLine(res, endToEndDefs)
			if err := validateMetrics(line.Metrics, endToEndDefs); err != nil {
				t.Error(err)
			}
			b, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(b, &back); err != nil || len(back) != 4 {
				t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", b)
			}
			for name, m := range line.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v: an end-to-end metric must never be zero", name, m.Value)
				}
				var fields map[string]any
				raw, _ := json.Marshal(m)
				json.Unmarshal(raw, &fields)
				if len(fields) != 2 {
					t.Errorf("%s marshals as %s, want value and unit only", name, raw)
				}
			}
			if def.Sim {
				want, _ := expectedEvents(def.Name)
				if res.EventsPerRep != want {
					t.Errorf("%d events per repetition, pinned %d", res.EventsPerRep, want)
				}
			} else if _, ok := res.Metrics["recover_s"]; ok != (def.Name == wServeWarm) {
				t.Errorf("recover_s present = %v", ok)
			}
		})
	}
}

// findEndToEnd looks a metric up among the eleven end-to-end ones.
func findEndToEnd(name string) *metricDef {
	for _, defs := range [][]metricDef{endToEndDefs, fileOnlyDefs} {
		for i := range defs {
			if defs[i].Name == name {
				return &defs[i]
			}
		}
	}
	return nil
}

// fileWith builds a results file holding one workload in which every
// metric reads 1 except the one given.
func fileWith(t *testing.T, dir, file, metric string, m Metric) string {
	t.Helper()
	metrics := map[string]Metric{}
	for _, d := range endToEndDefs {
		metrics[d.Name] = Metric{Value: 1, Unit: d.Unit}
	}
	metrics["fail_ratio"] = Metric{Value: 0, Unit: "ratio"}
	metrics[metric] = m
	f := File{Schema: schemaVersion, Env: Env{NumCPU: 2, ParallelValid: true},
		Workloads: []WorkloadResult{{Name: wSweepWrite, Correct: true, Attempted: 1, Metrics: metrics}}}
	path := filepath.Join(dir, file)
	if err := writeJSONFile(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// -compare gives ok inside the bound, regressed beyond it, and
// unresolved when a side's own spread is wider than the bound — unless
// the quartiles lie wholly apart.
func TestCompareVerdicts(t *testing.T) {
	const metric = "alloc_bytes_per_event" // bound 5 %
	if b := findEndToEnd(metric).Bound; b != 0.05 {
		t.Fatalf("the cases below assume a 5%% bound, %s has %v", metric, b)
	}
	val := func(v, q1, q3 float64) Metric {
		return Metric{Value: v, Unit: "B", Summary: &Summary{Median: v, Q1: q1, Q3: q3, N: 7}}
	}
	dir := t.TempDir()
	base := fileWith(t, dir, "base.json", metric, val(100, 99.5, 100.5))
	for _, tc := range []struct {
		name    string
		change  Metric
		verdict string
		err     error
	}{
		{"same", val(100.2, 99.8, 100.6), verdictOK, nil},
		{"inside-bound", val(103, 102.5, 103.5), verdictOK, nil},
		{"smaller", val(70, 69.5, 70.5), verdictOK, nil},
		{"beyond-bound", val(108, 107.5, 108.5), verdictRegressed, errRegressed},
		{"noisy", val(102, 96, 110), verdictUnresolved, errUnresolved},
		{"noisy-but-apart-worse", val(130, 120, 140), verdictRegressed, errRegressed},
		{"noisy-but-apart-better", val(70, 60, 80), verdictOK, nil},
	} {
		var out bytes.Buffer
		err := runCompare(&out, []string{base, fileWith(t, dir, tc.name+".json", metric, tc.change)})
		if err != tc.err {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.err)
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") {
				row = line
			}
		}
		if !strings.HasSuffix(row, " "+tc.verdict) {
			t.Errorf("%s: row %q, want verdict %s", tc.name, row, tc.verdict)
		}
	}
	// Any increase of fail_ratio is a regression.
	def := findEndToEnd("fail_ratio")
	if v, _ := judge(def, side{value: 0}, side{value: 0.001}); v != verdictRegressed {
		t.Errorf("fail_ratio 0 → 0.001 is %s", v)
	}
	if v, _ := judge(def, side{value: 0}, side{value: 0}); v != verdictOK {
		t.Errorf("fail_ratio 0 → 0 is %s", v)
	}
	// A higher-is-better metric reads the other way round.
	rate := findEndToEnd("req_per_s")
	if v, _ := judge(rate, side{value: 100, q1: 99, q3: 101, n: 7}, side{value: 100 * (1 - 1.2*rate.Bound), q1: 60, q3: 70.5, n: 7}); v != verdictRegressed {
		t.Errorf("req_per_s falling by more than its bound is %s", v)
	}
	if v, _ := judge(rate, side{value: 100, q1: 99, q3: 101, n: 7}, side{value: 130, q1: 129, q3: 131, n: 7}); v != verdictOK {
		t.Errorf("req_per_s rising is %s", v)
	}
}
