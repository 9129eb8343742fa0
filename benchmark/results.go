package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// schemaVersion names the results-file format; -compare refuses files of
// another version.
const schemaVersion = "asyncio-benchmark/1"

// Metric is one reported number. In a workload's own process Value is
// the figure the driver reads and Summary describes the repetitions it
// was taken over; in a full results file per-layer metrics are medians
// over the traced passes.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Summary is the sample distribution behind Value, when it is a
	// median over repetitions or runs.
	Summary *Summary `json:"summary,omitempty"`
	// Percentile is set on tail latencies: the percentile actually
	// reported, which is below the one in the name when too few samples
	// lie beyond it.
	Percentile float64 `json:"percentile,omitempty"`
}

// WorkloadEnv records how one workload's process was configured.
type WorkloadEnv struct {
	GCPercent int `json:"gc_percent"`
	// Clients and Workers are set on the service workloads only.
	Clients     int `json:"clients,omitempty"`
	Workers     int `json:"workers,omitempty"`
	Repetitions int `json:"repetitions"`
}

// WorkloadResult is everything one workload process reports.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Env       WorkloadEnv       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// EventsPerRep is the simulated-event count of one repetition (it
	// must repeat exactly); ServedBytesPerRep the response bytes of one
	// repetition of a service workload.
	EventsPerRep      int64 `json:"events_per_rep,omitempty"`
	ServedBytesPerRep int64 `json:"served_bytes_per_rep,omitempty"`
	// TracedWallS is, in a traced pass, the wall time of the repetition
	// that recorded spans.
	TracedWallS float64 `json:"traced_wall_s,omitempty"`
	// ReplayCoverage is, per request class of the decomposed replay, the
	// share of the request's wall time its child spans account for.
	ReplayCoverage map[string]float64 `json:"replay_coverage,omitempty"`
}

// Env is the environment header of a results file.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// ParallelValid is false on a one-CPU machine: the service workloads
	// then ran one client against one worker, and their throughput and
	// latency figures say nothing about the daemon's concurrency.
	ParallelValid bool `json:"parallel_valid"`
}

// File is the results file a full run writes and -compare reads.
type File struct {
	Schema    string            `json:"schema"`
	Env       Env               `json:"env"`
	Workloads []WorkloadResult  `json:"workloads"`
	PerLayer  map[string]Metric `json:"per_layer"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validateMetrics checks names and units against the contract's charset
// and that every expected name is present, none extra.
func validateMetrics(got map[string]Metric, want []metricDef) error {
	seen := make(map[string]bool, len(want))
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %q missing", d.Name)
		}
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
		if m.Unit != d.Unit || !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
		seen[d.Name] = true
	}
	for name := range got {
		if !seen[name] {
			return fmt.Errorf("metric %q is not in the declared list", name)
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultsFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaVersion)
	}
	return &f, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
