// Package cliflags defines the observability, fault-injection and
// durability flag block shared by the asyncio CLIs.
// cmd/asyncio-bench and cmd/asyncio-trace both register the block
// through Register, so the two tools expose the same flag surface by
// construction — a new shared flag added here appears in both, and the
// surfaces cannot drift apart again.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"asyncio/internal/critpath"
	"asyncio/internal/experiments"
)

// Set holds the parsed values of the shared flag block.
type Set struct {
	// Observability exports.
	TraceJSON  string // -trace-json: Chrome trace-event JSON (Perfetto)
	MetricsCSV string // -metrics: metrics registry as CSV
	CritPath   string // -critpath: critical-path profile JSON + summary table
	Pprof      string // -pprof: critical-path profile as gzipped pprof protobuf

	// -faults, -consistency, -durability and -durability-seed bind
	// straight into the knob block a scenario spec also carries.
	Knobs

	// Crash-durability plumbing of a single run (asyncio-trace).
	CheckpointEvery int  // -checkpoint-every: durable commit interval, 0 = off
	Journal         bool // -journal: write-ahead journal on the async path
}

// Register installs the shared flag block on fs and returns the Set
// the parsed values land in.
func Register(fs *flag.FlagSet) *Set {
	s := &Set{}
	fs.StringVar(&s.TraceJSON, "trace-json", "", "write the run's Chrome trace-event JSON (Perfetto) to this path")
	fs.StringVar(&s.MetricsCSV, "metrics", "", "write the metrics registry as CSV to this path")
	fs.StringVar(&s.CritPath, "critpath", "", "write the run's critical-path profile as JSON to this path and print its summary table")
	fs.StringVar(&s.Pprof, "pprof", "", "write the run's critical-path profile as a gzipped pprof protobuf to this path (go tool pprof)")
	fs.StringVar(&s.Faults, "faults", "", "fault-injection spec (see internal/faults)")
	fs.StringVar(&s.Durability, "durability", "gpfs", "write-back durability semantics on crash: gpfs | lustre")
	fs.Int64Var(&s.DurabilitySeed, "durability-seed", 1, "seed for the crash tearing draws")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 0, "durable checkpoint interval in epochs, 0 = off")
	fs.BoolVar(&s.Journal, "journal", false, "journal asynchronous writes ahead of dispatch")
	fs.StringVar(&s.Consistency, "consistency", "", "PFS consistency model: posix | session | mpiio | commit, with ;key=value tuning (see internal/pfs); empty = historical implicit model")
	return s
}

// WantCritPath reports whether any critical-path export was requested;
// callers use it to decide whether to attach a recorder to the run.
func (s *Set) WantCritPath() bool { return s.CritPath != "" || s.Pprof != "" }

// WantObservability reports whether any per-run export was requested.
func (s *Set) WantObservability() bool {
	return s.TraceJSON != "" || s.MetricsCSV != "" || s.WantCritPath()
}

// WantDurability reports whether the crash-durability plumbing
// (checkpoints or journaling) was requested.
func (s *Set) WantDurability() bool { return s.CheckpointEvery > 0 || s.Journal }

// RunKnobs parses the knob flags (Knobs.Parse) and switches on what the
// requested exports need: a critical-path recorder for -critpath/-pprof,
// metric series for -trace-json/-metrics. Errors name the flag without
// its dash ("faults: …").
func (s *Set) RunKnobs() (*experiments.RunKnobs, error) {
	k, err := s.Knobs.Parse()
	if err != nil {
		return nil, err
	}
	k.CritPath = s.WantCritPath()
	k.Series = s.TraceJSON != "" || s.MetricsCSV != ""
	return k, nil
}

// ExportProfile writes the requested critical-path artifacts: the
// deterministic JSON profile (plus its human summary table on render)
// for -critpath, and the gzipped pprof protobuf for -pprof. A nil
// profile is an error when either flag was set — the run should have
// carried one.
func (s *Set) ExportProfile(prof *critpath.Profile, render io.Writer) error {
	if !s.WantCritPath() {
		return nil
	}
	if prof == nil {
		return errors.New("no critical-path profile was produced")
	}
	if s.CritPath != "" {
		if err := WriteFile(s.CritPath, "critical-path profile", prof.WriteJSON); err != nil {
			return err
		}
		if render != nil {
			prof.Render(render)
		}
	}
	if s.Pprof != "" {
		return WriteFile(s.Pprof, "pprof profile", prof.WritePprof)
	}
	return nil
}

// WriteFile creates path and fills it through write — how every export
// flag of the block lands on disk. what names the export in errors.
func WriteFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", what, err)
	}
	return nil
}
