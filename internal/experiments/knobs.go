package experiments

import (
	"fmt"
	"runtime"

	"asyncio/internal/core"
	"asyncio/internal/critpath"
	"asyncio/internal/faults"
	"asyncio/internal/pfs"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
)

// RunKnobs is the only carrier of per-run configuration: every
// generator, sweep point, crash trial and instrumented run takes one,
// and every system they build is built through it. The CLIs parse their
// flags into one (cliflags.Set.RunKnobs), the campaign service parses a
// spec's knob block into one (cliflags.Knobs.Parse), and concurrent
// differently-configured runs never observe each other because nothing
// here is process-wide.
//
// A nil *RunKnobs and the zero value both mean the default
// configuration: no faults, the historical implicit consistency model,
// no profiling, no series, stock GPFS durability, nobody watching, one
// worker per GOMAXPROCS.
type RunKnobs struct {
	// Faults, when non-nil, attaches a fresh injector built from this
	// schedule to every system (an injector serves exactly one run).
	// Crash trials ignore it: their kill schedule is the trial's own.
	Faults *faults.Spec
	// Consistency, when non-nil, attaches a fresh consistency model
	// built from a copy of this spec (one model serves exactly one run).
	Consistency *pfs.ConsistencySpec
	// CritPath attaches a fresh critical-path recorder to every system.
	CritPath bool
	// Series records change-point metric series in every system's
	// registry from its creation on.
	Series bool
	// Durability, when non-nil, replaces the stock write-back model
	// (GPFS semantics, seed 1) that crash trials and checkpointed or
	// journaled instrumented runs tear on power loss.
	Durability *pfs.DurabilityConfig
	// Observer, when non-nil, receives the report of every run executed
	// under these knobs — complete or aborted — as the run returns.
	// Report order is execution order, so an observer that depends on
	// it sets Workers to 1.
	Observer func(*core.Report)
	// Workers fixes how many independent experiment points RunParallel
	// executes at once; <= 0 means one per GOMAXPROCS.
	Workers int
}

// Parallelism returns the worker count RunParallel uses under k.
func (k *RunKnobs) Parallelism() int {
	if k == nil || k.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return k.Workers
}

// durability resolves the write-back model crash runs tear.
func (k *RunKnobs) durability() pfs.DurabilityConfig {
	if k == nil || k.Durability == nil {
		return pfs.GPFSDurability(1)
	}
	return *k.Durability
}

// watchOpts builds the options that only watch a run — series
// recording and the report observer. A crash trial's restart system
// gets these and nothing else: it reruns healthy and unprofiled, but
// its report and metrics are still part of what the generator produced.
func (k *RunKnobs) watchOpts() []systems.Option {
	if k == nil {
		return nil
	}
	var opts []systems.Option
	if k.Series {
		opts = append(opts, systems.WithSeries(true))
	}
	if obs := k.Observer; obs != nil {
		opts = append(opts, systems.WithRunObserver(func(rep any) { obs(rep.(*core.Report)) }))
	}
	return opts
}

// sysOpts builds the per-run system options these knobs require. Every
// call hands out fresh run-scoped state (injector, consistency model,
// recorder): each serves exactly one run.
func (k *RunKnobs) sysOpts() []systems.Option {
	if k == nil {
		return nil
	}
	opts := k.watchOpts()
	if k.Faults != nil {
		opts = append(opts, systems.WithFaults(faults.FromSpec(k.Faults)))
	}
	if k.CritPath {
		opts = append(opts, systems.WithCritPath(critpath.NewRecorder()))
	}
	if k.Consistency != nil {
		sp := *k.Consistency
		opts = append(opts, systems.WithConsistency(pfs.NewConsistency(&sp)))
	}
	return opts
}

// newSystem builds a fresh clock+system for one run under these knobs.
// name is a runSystems name; anything else is a caller's bug (outside
// input goes through RunSpec.Validate first). Caller extras come last,
// so an experiment that pins its own injector, recorder or consistency
// model overrides the knob's.
func (k *RunKnobs) newSystem(name string, nodes int, opts ...systems.Option) *systems.System {
	build, ok := runSystems.find(name)
	if !ok {
		panic(fmt.Sprintf("experiments: no system named %q", name))
	}
	opts = append(k.sysOpts(), opts...)
	return build(vclock.New(), nodes, opts...)
}
