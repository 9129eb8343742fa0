// Command benchmark is the repository's performance ledger: five fixed,
// seeded workloads over the simulator and the campaign daemon, each
// output checked, every metric printed by name and unit, and one traced
// pass for the per-layer costs. See README.md.
//
//	go run -C benchmark . -seed 1 -out results.json     all workloads, then the traced pass
//	go run -C benchmark . -compare A.json B.json        A/A or parent-vs-change verdicts
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1
//
// The last form is one workload in this process; it is what the first
// form starts once per workload, and what BENCHMARK.json names.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result line")
		seed     = flag.Int64("seed", 1, "workload seed: orders the fixed scripts and picks the never-seen specs")
		seconds  = flag.Int("seconds", defaultSeconds, "measured window; sets the repetition count of the fixed scripts")
		trace    = flag.Int("trace", 0, "1 = the traced pass: spans on, per-layer metrics out")
		out      = flag.String("out", "", "results file to write (a traced run writes its spans next to it)")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, flag.Args())
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1, *out)
	default:
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if errors.Is(err, errUnresolved) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errIncorrect makes the command exit non-zero after it has printed its
// result: an output check failed.
var errIncorrect = errors.New("an output check failed (see failures)")

// runOne runs one workload in this process. Its last line on standard
// output is the driver's result object: end-to-end metrics with tracing
// off, per-layer metrics with tracing on.
func runOne(name string, seed int64, seconds int, traced bool, out string) error {
	def := findWorkload(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	scratch, err := makeScratch()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	applyGC(def)

	rc := &runCtx{def: def, seed: seed, seconds: seconds, scratch: scratch, clients: serviceClients()}
	var res *WorkloadResult
	var declared []metricDef
	if traced {
		res, err = runTraced(rc, out)
		declared = perLayerDefs
	} else {
		if err = runWorkload(rc); err != nil {
			return err
		}
		res = rc.result()
		declared = endToEndDefs
	}
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSONFile(out, res); err != nil {
			return err
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	line := driverLine(res, declared)
	if err := validateMetrics(line.Metrics, declared); err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func runWorkload(rc *runCtx) error {
	if rc.def.Sim {
		return runSim(rc)
	}
	if rc.def.Name == wServeCold {
		return runServeCold(rc)
	}
	return runServeWarm(rc)
}

// resultLine is the one JSON object the driver reads.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Metrics carry value and unit only: Metric's other fields are
	// omitted when empty.
	Metrics map[string]Metric `json:"metrics"`
}

func driverLine(res *WorkloadResult, declared []metricDef) resultLine {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]Metric, len(declared))}
	for _, d := range declared {
		if m, ok := res.Metrics[d.Name]; ok {
			line.Metrics[d.Name] = Metric{Value: m.Value, Unit: m.Unit}
		}
	}
	return line
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

// checkoutRoot is the directory holding BENCHMARK.json, found by walking
// up from the working directory (`go run -C benchmark` starts one level
// below it).
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json in %s or above it", dir)
		}
	}
}

// makeScratch creates this process's private directory for store
// segments, under .bench_build in the checkout so the benchmark writes
// nowhere else.
func makeScratch() (string, error) {
	root, err := checkoutRoot()
	if err != nil {
		return "", err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
