package cliflags

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"asyncio/internal/critpath"
)

// sharedNames is the flag surface the CLIs must agree on. The list is
// asserted here so removing a flag from Register (which would silently
// shrink both CLIs) fails a test rather than a user.
var sharedNames = []string{
	"checkpoint-every", "consistency", "critpath", "durability",
	"durability-seed", "faults", "journal", "metrics", "pprof",
	"trace-json",
}

func TestRegisterInstallsSharedSurface(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	if len(got) != len(sharedNames) {
		t.Fatalf("registered flags = %v, want %v", got, sharedNames)
	}
	for i := range sharedNames {
		if got[i] != sharedNames[i] {
			t.Fatalf("registered flags = %v, want %v", got, sharedNames)
		}
	}
}

func TestParseAndHelpers(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	s := Register(fs)
	err := fs.Parse([]string{
		"-critpath", "p.json", "-faults", "seed=3;err=gpfs:0.1",
		"-durability", "lustre", "-durability-seed", "7",
		"-checkpoint-every", "2", "-journal",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.WantCritPath() || !s.WantObservability() || !s.WantDurability() {
		t.Fatalf("want* helpers = (%v, %v, %v), want all true",
			s.WantCritPath(), s.WantObservability(), s.WantDurability())
	}
	in, err := s.Injector()
	if err != nil || in == nil {
		t.Fatalf("Injector() = (%v, %v), want non-nil injector", in, err)
	}
	if _, err := s.DurabilityConfig(); err != nil {
		t.Fatalf("DurabilityConfig() error: %v", err)
	}
	s.Durability = "nvram"
	if _, err := s.DurabilityConfig(); err == nil {
		t.Fatal("DurabilityConfig() accepted an unknown mode")
	}
}

func TestExportProfile(t *testing.T) {
	dir := t.TempDir()
	s := &Set{
		CritPath: filepath.Join(dir, "prof.json"),
		Pprof:    filepath.Join(dir, "prof.pb.gz"),
	}
	if err := s.ExportProfile(nil, nil); err == nil {
		t.Fatal("ExportProfile accepted a nil profile with exports requested")
	}

	rec := critpath.NewRecorder()
	rec.Record(critpath.Edge{Track: "rank0", Cause: critpath.Compute, Subsystem: "core", Start: 0, End: 1e9})
	rec.SetMakespan(1e9)
	prof := rec.Profile("test run")
	var table bytes.Buffer
	if err := s.ExportProfile(prof, &table); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.CritPath)
	if err != nil {
		t.Fatal(err)
	}
	back, err := critpath.ParseProfile(data)
	if err != nil {
		t.Fatalf("exported JSON does not round-trip: %v", err)
	}
	if back.Label != "test run" {
		t.Fatalf("round-tripped label = %q", back.Label)
	}
	if table.Len() == 0 {
		t.Fatal("no summary table rendered")
	}
	if fi, err := os.Stat(s.Pprof); err != nil || fi.Size() == 0 {
		t.Fatalf("pprof artifact missing or empty: %v", err)
	}

	// No exports requested: a nil profile is fine and nothing is written.
	none := &Set{}
	if err := none.ExportProfile(nil, nil); err != nil {
		t.Fatal(err)
	}
}
