package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"asyncio/internal/faults"
	"asyncio/internal/perfetto"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
)

// crashSystem builds a 2-node Summit with the given fault spec.
func crashSystem(t *testing.T, spec string) *systems.System {
	t.Helper()
	in, err := faults.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return systems.Summit(vclock.New(), 2, systems.WithFaults(in))
}

// A rank crash mid-run aborts the run with a typed crash error but
// still flushes a partial report: the epochs committed before the
// crash, the crash record, and every rank's spans.
func TestCrashRankAbortsWithPartialReport(t *testing.T) {
	sys := crashSystem(t, "crashrank=3@10s")
	// Epochs are ~7s (5s compute + 2s sync I/O): epoch 0 commits at ~7s,
	// the crash lands inside epoch 1.
	rep, err := Run(sys, Config{
		Workload:   "fake",
		Iterations: 5,
		Mode:       ForceSync,
	}, fakeIO(5*time.Second, 2*time.Second, 100*time.Millisecond, 1<<20))
	if !faults.IsCrash(err) {
		t.Fatalf("Run error = %v, want an injected crash", err)
	}
	if rep == nil {
		t.Fatal("Run returned a nil report on abort")
	}
	if !rep.Aborted || rep.Err == "" {
		t.Fatalf("Aborted/Err = %v/%q, want true/non-empty", rep.Aborted, rep.Err)
	}
	if len(rep.Run.Records) != 1 {
		t.Fatalf("committed epochs = %d, want 1 (epoch 0 finished before the 10s crash)", len(rep.Run.Records))
	}
	if len(rep.Crashes) != 1 {
		t.Fatalf("crash records = %d, want 1", len(rep.Crashes))
	}
	cr := rep.Crashes[0]
	if cr.Node != -1 || len(cr.Ranks) != 1 || cr.Ranks[0] != 3 || cr.At != 10*time.Second {
		t.Fatalf("crash record = %+v", cr)
	}
	if got := sys.Metrics.Counter("core.crashes").Value(); got != 1 {
		t.Fatalf("core.crashes = %d, want 1", got)
	}
	for r, sp := range rep.Spans {
		if sp == nil {
			t.Fatalf("rank %d span missing from the partial report", r)
		}
	}
}

// A node crash kills every rank the node hosts.
func TestCrashNodeKillsAllNodeRanks(t *testing.T) {
	sys := crashSystem(t, "crashnode=1@10s")
	rep, err := Run(sys, Config{
		Workload:   "fake",
		Iterations: 5,
		Mode:       ForceSync,
	}, fakeIO(5*time.Second, 2*time.Second, 100*time.Millisecond, 1<<20))
	if !faults.IsCrash(err) {
		t.Fatalf("Run error = %v, want an injected crash", err)
	}
	if len(rep.Crashes) != 1 {
		t.Fatalf("crash records = %d, want 1", len(rep.Crashes))
	}
	cr := rep.Crashes[0]
	if cr.Node != 1 {
		t.Fatalf("crash node = %d, want 1", cr.Node)
	}
	want := []int{6, 7, 8, 9, 10, 11} // Summit hosts 6 ranks per node
	if len(cr.Ranks) != len(want) {
		t.Fatalf("victims = %v, want %v", cr.Ranks, want)
	}
	for i, r := range want {
		if cr.Ranks[i] != r {
			t.Fatalf("victims = %v, want %v", cr.Ranks, want)
		}
	}
}

// A crash scheduled past the end of the run is a no-op: the run
// completes cleanly and the armed timer does not drag virtual time out
// to the crash instant.
func TestCrashAfterFinishIsNoOp(t *testing.T) {
	sys := crashSystem(t, "crashrank=0@10m")
	rep, err := Run(sys, Config{
		Workload:   "fake",
		Iterations: 2,
		Mode:       ForceSync,
	}, fakeIO(time.Second, time.Second, time.Second, 1<<20))
	if err != nil {
		t.Fatalf("Run error = %v, want clean completion", err)
	}
	if rep.Aborted || len(rep.Crashes) != 0 {
		t.Fatalf("Aborted=%v Crashes=%v on a run that outlived its crash", rep.Aborted, rep.Crashes)
	}
	if now := sys.Clk.Now(); now >= 10*time.Minute {
		t.Fatalf("clock ran to %v; the dead crash timer dragged time forward", now)
	}
	// Same for a crash aimed at a rank the run does not have.
	sys2 := crashSystem(t, "crashrank=99@1s")
	_, err = Run(sys2, Config{
		Workload:   "fake",
		Iterations: 2,
		Mode:       ForceSync,
	}, fakeIO(time.Second, time.Second, time.Second, 1<<20))
	if err != nil {
		t.Fatalf("out-of-range crash target aborted the run: %v", err)
	}
}

// OnCrash hooks run exactly once, only on the victim, with the typed
// crash error.
func TestOnCrashHooksFireOnVictimOnly(t *testing.T) {
	sys := crashSystem(t, "crashrank=2@10s")
	fired := make([]error, 12)
	hooks := fakeIO(5*time.Second, 2*time.Second, 100*time.Millisecond, 1<<20)
	hooks.Init = func(ctx *RankCtx) error {
		r := ctx.Rank
		ctx.OnCrash(func(reason error) { fired[r] = reason })
		return nil
	}
	_, err := Run(sys, Config{
		Workload:   "fake",
		Iterations: 5,
		Mode:       ForceSync,
	}, hooks)
	if !faults.IsCrash(err) {
		t.Fatalf("Run error = %v, want an injected crash", err)
	}
	for r, reason := range fired {
		if r == 2 {
			if !faults.IsCrash(reason) {
				t.Fatalf("victim hook reason = %v, want the crash error", reason)
			}
		} else if reason != nil {
			t.Fatalf("rank %d (survivor) crash hook fired: %v", r, reason)
		}
	}
}

// Satellite: an aborted run's partial report still exports a valid
// Perfetto trace containing the crash marker — observability survives
// the crash.
func TestAbortedRunExportsValidPerfetto(t *testing.T) {
	sys := crashSystem(t, "crashrank=3@10s")
	rep, err := Run(sys, Config{
		Workload:   "fake",
		Iterations: 5,
		Mode:       ForceSync,
	}, fakeIO(5*time.Second, 2*time.Second, 100*time.Millisecond, 1<<20))
	if !faults.IsCrash(err) {
		t.Fatalf("Run error = %v, want an injected crash", err)
	}
	var buf bytes.Buffer
	if err := perfetto.WriteProfile(&buf, rep.Spans, rep.Metrics, nil); err != nil {
		t.Fatalf("perfetto export of aborted run: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("aborted-run trace is not valid JSON")
	}
	if !bytes.Contains(buf.Bytes(), []byte("core:crash(rank3)")) {
		t.Fatal("trace lacks the core:crash(rank3) event")
	}
}
