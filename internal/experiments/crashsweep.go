package experiments

import (
	"errors"
	"fmt"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/faults"
	"asyncio/internal/hdf5"
	"asyncio/internal/pfs"
	"asyncio/internal/recovery"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/harness"
	"asyncio/internal/workloads/vpicio"
)

// CrashTrialConfig parameterizes one crash-consistency trial: a VPIC-IO
// run with a write-back durable store, a write-ahead journal on the
// asynchronous path, and periodic durable checkpoints, killed by an
// injected crash, then scanned, replayed, and restarted from the last
// durable checkpoint.
type CrashTrialConfig struct {
	Nodes            int
	Steps            int
	ParticlesPerRank uint64
	ComputeTime      time.Duration
	Mode             core.Mode
	// CheckpointEvery is the durable-commit interval in epochs; <= 0
	// disables checkpoints (restart then replays from step 0).
	CheckpointEvery int
	// FaultSpec is the full schedule, typically "seed=N;crashrank=R@T".
	FaultSpec string
	// JournalPayload captures element bytes in the journal (verification
	// and replay) rather than extent maps alone.
	JournalPayload bool
}

// CrashTrialResult carries everything a trial produced, for both the
// sweep's aggregates and the chaos harness's byte-level assertions.
type CrashTrialResult struct {
	// Crashed reports whether the injected crash actually fired; a crash
	// scheduled past the run's end leaves a clean complete run.
	Crashed bool
	// CrashRun is the (partial, when Crashed) report of the first run.
	CrashRun *core.Report
	// PFSCrash describes the torn write-back cache (nil when !Crashed).
	PFSCrash *pfs.CrashReport
	// Scan is the post-crash journal scan + replay (nil when !Crashed).
	Scan *recovery.Report
	// LastDurable is the newest epoch covered by a durable checkpoint.
	LastDurable int
	// RestartFresh reports that the crashed image was unopenable (crash
	// before the first durable commit) and the restart recreated the
	// container from scratch.
	RestartFresh bool
	// RestartRun is the restart run's report (nil when !Crashed).
	RestartRun *core.Report
	// RestartTime is the virtual duration of the restart run — the
	// recovery-cost side of the checkpoint-interval tradeoff.
	RestartTime time.Duration
	// Store is the final base image after restart (or after the clean
	// run when the crash never fired).
	Store hdf5.Store
	// Journal is the run's write-ahead journal (post-crash state).
	Journal *recovery.Journal
	// Checker is the crash run's consistency oracle (nil when the trial
	// ran without a consistency model). The restart run deliberately
	// carries no model: the oracle judges the run that crashed, and
	// VerifyDurable holds against the final Store because the restart
	// rewrites the same deterministic bytes.
	Checker *pfs.ConsistencyChecker
}

// CrashTrial executes one crash→scan→replay→restart cycle under the
// given knobs: k.Durability is the write-back model the crash tears,
// k.Consistency the crash run's PFS consistency model (its checker
// lands in the result), k.CritPath profiles the crash run; k.Faults is
// ignored — the kill schedule is cfg.FaultSpec. The flow is
// deterministic: every random draw (crash tearing, fault schedule) is
// seeded through cfg and k, so identical inputs produce byte-identical
// stores.
func CrashTrial(cfg CrashTrialConfig, k *RunKnobs) (*CrashTrialResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 4
	}
	if cfg.ParticlesPerRank == 0 {
		cfg.ParticlesPerRank = 256
	}
	if cfg.ComputeTime == 0 {
		cfg.ComputeTime = time.Second
	}

	kit := harness.NewCrashKit(k.durability(), recovery.DefaultCost(), cfg.JournalPayload)
	ck := harness.NewCheckpointer(cfg.CheckpointEvery, kit.Journal)
	in, err := faults.New(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	sys := k.newSystem("summit", cfg.Nodes, systems.WithFaults(in))
	ck.Instrument(sys.Metrics)
	kit.Journal.Instrument(sys.Metrics, "vpic")
	kit.SetCrit(sys.Crit)

	res := &CrashTrialResult{LastDurable: -1, Store: kit.Base, Journal: kit.Journal, Checker: sys.Consistency.Checker()}
	rep, _, err := vpicio.Run(sys, vpicio.Config{
		Steps:            cfg.Steps,
		ParticlesPerRank: cfg.ParticlesPerRank,
		ComputeTime:      cfg.ComputeTime,
		Mode:             cfg.Mode,
		Materialize:      true,
		Env:              harness.Options{AsyncInlineStages: kit.InlineStages()},
		Store:            kit.Durable,
		Checkpoint:       ck,
	})
	res.CrashRun = rep
	res.LastDurable = ck.LastDurable()
	if err == nil {
		// The crash never fired (scheduled past the end): the run is
		// complete and fully flushed by Term. Seal the cache into the base
		// so Store is readable either way.
		kit.Durable.Crash(sys.Clk.Now())
		return res, nil
	}
	if !faults.IsCrash(err) {
		return nil, fmt.Errorf("crash trial failed for a non-crash reason: %w", err)
	}
	res.Crashed = true

	// Power is gone: tear the volatile write-back cache into the base
	// image, then scan the journal against what survived and replay the
	// salvageable extents.
	res.PFSCrash = kit.Durable.Crash(sys.Clk.Now())
	res.Scan = recovery.Scan(kit.Journal.Bytes(), kit.Base, recovery.ScanOptions{Replay: true})

	// Restart from the last durable checkpoint. A crash before the first
	// durable commit can leave the image unopenable — then recovery is a
	// fresh run from step 0.
	start := res.LastDurable + 1
	openExisting := true
	if _, oerr := hdf5.Open(kit.Base); oerr != nil {
		openExisting = false
		start = 0
		res.RestartFresh = true
	}
	if start >= cfg.Steps {
		// The crash landed after the final epoch's durable commit: every
		// step is already checkpointed, so the recovered image plus journal
		// replay is the final state and there is nothing to re-execute.
		return res, nil
	}
	sys2 := systems.Summit(vclock.New(), cfg.Nodes, k.watchOpts()...)
	rep2, _, err := vpicio.Run(sys2, vpicio.Config{
		Steps:            cfg.Steps,
		ParticlesPerRank: cfg.ParticlesPerRank,
		ComputeTime:      cfg.ComputeTime,
		Mode:             cfg.Mode,
		Materialize:      true,
		Store:            kit.Base,
		OpenExisting:     openExisting,
		StartStep:        start,
	})
	if err != nil {
		return nil, fmt.Errorf("restart from step %d: %w", start, err)
	}
	res.RestartRun = rep2
	res.RestartTime = sys2.Clk.Now()
	return res, nil
}

// VerifyTrialImage checks the final image against the crash-free
// pattern: every step's every property must hold each rank's
// fillParticles bytes. This is the chaos harness's ground truth — after
// recovery plus restart the image must be byte-identical to a run that
// never crashed.
func VerifyTrialImage(store hdf5.Store, ranks, steps int, perRank uint64) error {
	f, err := hdf5.Open(store)
	if err != nil {
		return fmt.Errorf("opening recovered image: %w", err)
	}
	buf := make([]byte, int(perRank)*4)
	for step := 0; step < steps; step++ {
		g, err := f.Root().OpenGroup(nil, vpicio.StepGroup(step))
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		for pi, prop := range vpicio.Properties {
			ds, err := g.OpenDataset(nil, prop)
			if err != nil {
				return fmt.Errorf("step %d %s: %w", step, prop, err)
			}
			for rank := 0; rank < ranks; rank++ {
				slab, err := harness.Slab1D(perRank*uint64(ranks), perRank, rank)
				if err != nil {
					return err
				}
				if err := ds.Read(nil, slab, buf); err != nil {
					return fmt.Errorf("step %d %s rank %d: %w", step, prop, rank, err)
				}
				for i := 0; i+4 <= len(buf); i += 4 {
					want := vpicio.ExpectedValue(rank, step, pi, i/4)
					got := uint32(buf[i]) | uint32(buf[i+1])<<8 | uint32(buf[i+2])<<16 | uint32(buf[i+3])<<24
					if got != want {
						return fmt.Errorf("step %d %s rank %d element %d: %08x != %08x",
							step, prop, rank, i/4, got, want)
					}
				}
			}
		}
	}
	return nil
}

// CrashSweep measures the crash-consistency tradeoff (robustness study):
// VPIC-IO on Summit killed mid-run by an injected node crash, for sync
// vs async I/O across checkpoint intervals. For each point it reports
// the epochs lost to the crash (work that must be redone on restart);
// the notes record the journal's classification of in-flight extents
// and the restart cost.
func CrashSweep(scale Scale, k *RunKnobs) (*Table, error) {
	intervals := []int{1, 2, 4}
	steps := scale.Steps
	if steps < 5 {
		steps = 5
	}
	t := &Table{
		ID:     "crashsweep",
		Title:  "VPIC-IO crash recovery: epochs lost vs checkpoint interval, Summit (1 node)",
		XLabel: "checkpoint interval (epochs)", YLabel: "epochs lost",
	}
	type point struct {
		lost       float64
		torn, dead int
		restart    time.Duration
	}
	points := make([]point, 2*len(intervals))
	// The crash lands mid-run: after a couple of epochs (~31 s each with
	// the paper's 30 s compute phase) but well before the last.
	crashAt := 95 * time.Second
	err := RunParallel(k, len(points), func(i int) error {
		every := intervals[i/2]
		mode := core.ForceSync
		if i%2 == 1 {
			mode = core.ForceAsync
		}
		res, err := CrashTrial(CrashTrialConfig{
			Nodes:            1,
			Steps:            steps,
			ParticlesPerRank: 1 << 10,
			ComputeTime:      30 * time.Second,
			Mode:             mode,
			CheckpointEvery:  every,
			FaultSpec:        fmt.Sprintf("seed=17;crashnode=0@%s", crashAt),
			JournalPayload:   true,
		}, k)
		if err != nil {
			return fmt.Errorf("crashsweep every=%d %v: %w", every, mode, err)
		}
		if !res.Crashed {
			return errors.New("crashsweep: scheduled crash never fired")
		}
		// Epochs lost = epochs that ran (fully or partially) before the
		// crash but were not covered by a durable checkpoint.
		ran := len(res.CrashRun.Run.Records)
		lost := ran - (res.LastDurable + 1)
		if lost < 0 {
			lost = 0
		}
		points[i] = point{lost: float64(lost), restart: res.RestartTime}
		if res.Scan != nil {
			points[i].torn = res.Scan.Torn
			points[i].dead = res.Scan.Lost
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var xs, syncY, asyncY []float64
	for ii, every := range intervals {
		xs = append(xs, float64(every))
		syncY = append(syncY, points[2*ii].lost)
		asyncY = append(asyncY, points[2*ii+1].lost)
		t.note("every=%d: async journal classified %d torn / %d lost extents; restart cost %s (sync) / %s (async)",
			every, points[2*ii+1].torn, points[2*ii+1].dead,
			points[2*ii].restart.Round(time.Second), points[2*ii+1].restart.Round(time.Second))
	}
	t.Series = []Series{
		{Name: "sync", X: xs, Y: syncY},
		{Name: "async", X: xs, Y: asyncY},
	}
	t.note("node 0 killed at %s; durable store tears un-fsynced writes at block granularity (GPFS semantics)", crashAt)
	return t, nil
}
