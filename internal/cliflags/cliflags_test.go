package cliflags

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"asyncio/internal/critpath"
	"asyncio/internal/pfs"
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
	k, err := s.RunKnobs()
	if err != nil {
		t.Fatalf("RunKnobs() error: %v", err)
	}
	if k.Faults == nil || k.Consistency != nil {
		t.Fatalf("RunKnobs() = %+v, want a fault schedule and no consistency spec", k)
	}
	if want := pfs.LustreDurability(7, 8); !reflect.DeepEqual(*k.Durability, want) {
		t.Fatalf("RunKnobs().Durability = %+v, want %+v", *k.Durability, want)
	}
	// -critpath asks for a recorder; neither -trace-json nor -metrics was
	// given, so no series.
	if !k.CritPath || k.Series {
		t.Fatalf("RunKnobs() CritPath, Series = %v, %v, want true, false", k.CritPath, k.Series)
	}
	s.MetricsCSV = "m.csv"
	if k, _ := s.RunKnobs(); !k.Series {
		t.Fatal("-metrics did not switch series recording on")
	}
	s.Durability = "nvram"
	if _, err := s.RunKnobs(); err == nil || !strings.HasPrefix(err.Error(), "durability:") {
		t.Fatalf("RunKnobs() with an unknown durability mode: err = %v, want one naming the knob", err)
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
