package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/faults"
	"asyncio/internal/hdf5"
	"asyncio/internal/perfetto"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
	"asyncio/internal/workloads/vpicio"
)

// randomFaultSpec composes an arbitrary fault schedule from the trial's
// rng: any subset of fault types, wild parameters, deliberately
// including schedules harsh enough to exhaust retries.
func randomFaultSpec(rng *rand.Rand) string {
	var parts []string
	add := func(f string, args ...any) { parts = append(parts, fmt.Sprintf(f, args...)) }
	targets := []string{"*", "gpfs"}
	tgt := func() string { return targets[rng.Intn(len(targets))] }
	add("seed=%d", rng.Int63n(1<<32))
	if rng.Float64() < 0.7 {
		add("err=%s:%.3f", tgt(), rng.Float64()*0.3)
	}
	if rng.Float64() < 0.5 {
		start := rng.Intn(5)
		add("slow=%s:%.2f@%ds-%ds", tgt(), 0.05+rng.Float64()*0.9, start, start+1+rng.Intn(10))
	}
	if rng.Float64() < 0.4 {
		add("outage=%s@%dms+%dms", tgt(), rng.Intn(10000), 200+rng.Intn(4000))
	}
	if rng.Float64() < 0.3 {
		start := rng.Intn(6)
		add("meta=%s:%dms@%ds-%ds", tgt(), 1+rng.Intn(50), start, start+1+rng.Intn(8))
	}
	if rng.Float64() < 0.3 {
		add("bgstall=%dms+%dms", rng.Intn(8000), 100+rng.Intn(3000))
	}
	if rng.Float64() < 0.3 {
		add("stagecap=%d", int64(1)<<uint(8+rng.Intn(12)))
	}
	add("retries=%d", 1+rng.Intn(8))
	add("backoff=%dms", 1+rng.Intn(40))
	add("maxbackoff=%dms", 50+rng.Intn(400))
	if rng.Float64() < 0.3 {
		add("deadline=%dms", 100+rng.Intn(5000))
	}
	if rng.Float64() < 0.4 {
		add("demote=%d", 10+rng.Intn(400))
	}
	return strings.Join(parts, ";")
}

// trialOutcome captures everything a trial may produce, for the
// determinism comparison.
type trialOutcome struct {
	spec     string
	errText  string
	metrics  []byte
	perfJSON []byte
}

// TestFaultProperty is the tentpole's safety net: across 1000 seeded
// trials, an arbitrary fault schedule applied to a small materialized
// VPIC-IO run must either complete with every byte of every dataset
// correct, or fail with a typed *faults.Error — never panic, deadlock,
// or corrupt data — and re-running the same trial must reproduce
// byte-identical metrics and trace exports.
func TestFaultProperty(t *testing.T) {
	trials := suiteTrials(1000, 100)
	const (
		steps   = 2
		ranks   = 6 // one Summit node
		perRank = 64
	)
	var failed, succeeded int
	for trial := 0; trial < trials; trial++ {
		first := runFaultTrial(t, int64(trial), steps, perRank)
		second := runFaultTrial(t, int64(trial), steps, perRank)
		if first.errText != second.errText {
			t.Fatalf("trial %d (%s): error not reproducible:\n  %q\nvs\n  %q",
				trial, first.spec, first.errText, second.errText)
		}
		if !bytes.Equal(first.metrics, second.metrics) {
			t.Fatalf("trial %d (%s): metrics exports differ between identical runs", trial, first.spec)
		}
		if !bytes.Equal(first.perfJSON, second.perfJSON) {
			t.Fatalf("trial %d (%s): trace exports differ between identical runs", trial, first.spec)
		}
		if first.errText != "" {
			failed++
		} else {
			succeeded++
		}
	}
	t.Logf("%d trials: %d completed, %d failed with typed errors", trials, succeeded, failed)
	if succeeded == 0 || failed == 0 {
		t.Errorf("want both outcomes exercised: %d completed, %d failed", succeeded, failed)
	}
}

// runFaultTrial runs one seeded trial and verifies its invariants.
func runFaultTrial(t *testing.T, seed int64, steps int, perRank uint64) trialOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := randomFaultSpec(rng)
	mode := []core.Mode{core.ForceSync, core.ForceAsync, core.Adaptive}[rng.Intn(3)]
	out := trialOutcome{spec: spec}

	in, err := faults.New(spec)
	if err != nil {
		t.Fatalf("trial %d: generated invalid spec %q: %v", seed, spec, err)
	}
	sys := systems.Summit(vclock.New(), 1, systems.WithFaults(in))
	sys.Metrics.EnableSeries()
	rep, raw, err := vpicio.Run(sys, vpicio.Config{
		Steps: steps, ParticlesPerRank: perRank, ComputeTime: 500 * time.Millisecond,
		Mode: mode, Materialize: true,
	})
	if err != nil {
		var fe *faults.Error
		if !errors.As(err, &fe) {
			t.Fatalf("trial %d (%s, %v): non-fault error: %v", seed, spec, mode, err)
		}
		out.errText = err.Error()
		return out
	}

	// Completed: every byte of every dataset must match the fill
	// pattern, regardless of retries, fallbacks, or mode switches.
	verifyTrialFile(t, seed, spec, raw, steps, 6, perRank)
	// And nothing may leak staged accounting.
	if g := sys.Metrics.FindGauge("asyncvol.staged_outstanding_bytes"); g != nil && g.Value() != 0 {
		t.Fatalf("trial %d (%s): staged bytes gauge = %v after completed run", seed, spec, g.Value())
	}

	var mbuf, pbuf bytes.Buffer
	if err := rep.Metrics.WriteCSV(&mbuf, "trial"); err != nil {
		t.Fatalf("trial %d: metrics export: %v", seed, err)
	}
	if err := perfetto.WriteProfile(&pbuf, rep.Spans, rep.Metrics, nil); err != nil {
		t.Fatalf("trial %d: trace export: %v", seed, err)
	}
	out.metrics = mbuf.Bytes()
	out.perfJSON = pbuf.Bytes()
	return out
}

// verifyTrialFile checks every step/prop/rank slab against vpicio's
// deterministic fill pattern.
func verifyTrialFile(t *testing.T, seed int64, spec string, closed *hdf5.File, steps, ranks int, perRank uint64) {
	t.Helper()
	raw, err := hdf5.Open(closed.Store())
	if err != nil {
		t.Fatalf("trial %d (%s): reopening: %v", seed, spec, err)
	}
	root := vol.Native{}.Wrap(raw).Root()
	pr := vol.Props{}
	for s := 0; s < steps; s++ {
		g, err := root.OpenGroup(pr, vpicio.StepGroup(s))
		if err != nil {
			t.Fatalf("trial %d (%s): step %d: %v", seed, spec, s, err)
		}
		for pi, prop := range vpicio.Properties {
			ds, err := g.OpenDataset(pr, prop)
			if err != nil {
				t.Fatalf("trial %d (%s): %v", seed, spec, err)
			}
			buf := make([]byte, int(perRank)*4*ranks)
			if err := ds.Read(pr, nil, buf); err != nil {
				t.Fatalf("trial %d (%s): %v", seed, spec, err)
			}
			for r := 0; r < ranks; r++ {
				base := r * int(perRank) * 4
				for i := 0; i < int(perRank); i++ {
					got := binary.LittleEndian.Uint32(buf[base+4*i:])
					want := vpicio.ExpectedValue(r, s, pi, i)
					if got != want {
						t.Fatalf("trial %d (%s): step %d prop %s rank %d elem %d = %#x, want %#x",
							seed, spec, s, prop, r, i, got, want)
					}
				}
			}
		}
	}
}
