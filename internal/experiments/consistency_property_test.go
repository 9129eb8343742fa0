package experiments

import (
	"errors"
	"fmt"
	"testing"

	"asyncio/internal/pfs"
)

// consistencyOutcome classifies one checked trial: either the oracle is
// clean, or it reports a *typed* model violation. Anything else — a
// harness error, an untyped checker error, a panic — fails the
// property. The classification string also feeds the reproducibility
// fingerprint, so two runs of a trial must agree not only on the bytes
// they produce but on the verdict the oracle reaches.
func consistencyOutcome(t *testing.T, i int, model pfs.Model, res *CrashTrialResult) string {
	t.Helper()
	if res.Checker == nil {
		t.Fatalf("trial %d (%s): checked trial carries no checker", i, model)
	}
	verdict := "clean"
	if err := res.Checker.Check(); err != nil {
		var verr *pfs.ViolationError
		if !errors.As(err, &verr) {
			t.Fatalf("trial %d (%s): untyped checker error: %v", i, model, err)
		}
		verdict = "violation:" + verr.Error()
	}
	if err := res.Checker.VerifyDurable(res.Store); err != nil {
		var verr *pfs.ViolationError
		if !errors.As(err, &verr) {
			t.Fatalf("trial %d (%s): untyped durability error: %v", i, model, err)
		}
		verdict += " durability:" + verr.Error()
	}
	return verdict
}

// TestConsistencyProperty is the model-spectrum property suite: 1000
// random (seed, fault-spec, durability, checkpoint-interval) tuples
// cycled across all four consistency models. Every trial must either
// come back checker-clean or fail with a typed model violation, and the
// full trial fingerprint — final image bytes, recovery classification,
// and the oracle's verdict plus its event counts — must be
// byte-identical between two runs of the same trial.
func TestConsistencyProperty(t *testing.T) {
	trials := suiteTrials(1000, 40)
	if err := RunParallel(nil, trials, func(i int) error {
		model := consistencyModels[i%len(consistencyModels)]
		run := func() (string, error) {
			// Offset past the base chaos (+0), crash-property (+10k),
			// and consistency-chaos (+20k) suites.
			cfg, k := chaosTrialConfig(i + 30_000)
			k.Consistency = checkedSpec(t, model)
			res, err := CrashTrial(cfg, k)
			if err != nil {
				return "", fmt.Errorf("trial %d (%s, %s): %w", i, model, cfg.FaultSpec, err)
			}
			fp := chaosFingerprint(t, res) +
				" checker=" + res.Checker.Summary() +
				" verdict=" + consistencyOutcome(t, i, model, res)
			return fp, nil
		}
		first, err := run()
		if err != nil {
			return err
		}
		second, err := run()
		if err != nil {
			return err
		}
		if first != second {
			return fmt.Errorf("trial %d (%s): runs diverged\n  first:  %s\n  second: %s",
				i, model, first, second)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
