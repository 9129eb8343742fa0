package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// chaosFingerprint reduces a crash-trial result to a comparable string:
// every externally observable outcome — crash records, scan
// classification, checkpoint coverage, restart cost, and a hash of the
// final image bytes. Two runs that agree on this string produced the
// same report byte for byte.
func chaosFingerprint(t *testing.T, res *CrashTrialResult) string {
	t.Helper()
	s := fmt.Sprintf("crashed=%v lastDurable=%d fresh=%v", res.Crashed, res.LastDurable, res.RestartFresh)
	if res.CrashRun != nil {
		s += fmt.Sprintf(" epochs=%d crashes=%+v aborted=%v",
			len(res.CrashRun.Run.Records), res.CrashRun.Crashes, res.CrashRun.Aborted)
	}
	if res.Scan != nil {
		s += " scan=" + res.Scan.Summary()
	}
	if res.RestartRun != nil {
		s += fmt.Sprintf(" restartEpochs=%d restartTime=%s", len(res.RestartRun.Run.Records), res.RestartTime)
	}
	buf := make([]byte, res.Store.Size())
	if len(buf) > 0 {
		if _, err := res.Store.ReadAt(buf, 0); err != nil {
			t.Fatalf("reading final image: %v", err)
		}
	}
	return fmt.Sprintf("%s image=%x", s, sha256.Sum256(buf))
}

// TestCrashProperty is the per-seed reproducibility property: across
// 1000 random seeds, crash targets, crash instants, durability models,
// and checkpoint intervals, running the same trial twice must produce
// byte-identical trial reports — same crash records, same journal
// classification, same recovered image.
func TestCrashProperty(t *testing.T) {
	trials := suiteTrials(1000, 40)
	diffs := make([]string, trials)
	if err := RunParallel(nil, trials, func(i int) error {
		// Offset past the chaos fleet's indices so the two suites draw
		// different (seed, fault-spec) tuples.
		cfg, k := chaosTrialConfig(i + 10_000)
		var fps [2]string
		for r := range fps {
			res, err := CrashTrial(cfg, k)
			if err != nil {
				return fmt.Errorf("trial %d run %d (%s): %w", i, r, cfg.FaultSpec, err)
			}
			fps[r] = chaosFingerprint(t, res)
		}
		if fps[0] != fps[1] {
			diffs[i] = fmt.Sprintf("trial %d (%s):\n  first:  %s\n  second: %s", i, cfg.FaultSpec, fps[0], fps[1])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, d := range diffs {
		if d != "" {
			bad++
			if bad <= 3 {
				t.Error(d)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d trials diverged between two runs", bad, trials)
	}
}
