package experiments

import (
	"asyncio/internal/critpath"
	"asyncio/internal/faults"
	"asyncio/internal/pfs"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
)

// RunKnobs bundles the per-run configuration the CLIs historically
// installed through process-wide setters (SetDefaultFaults,
// SetDefaultConsistency, SetCritPathProfiling): the fault schedule, the
// PFS consistency model and critical-path recording. The global setters
// still exist for the flag-driven CLIs, but callers that execute many
// differently-configured runs concurrently (the campaign service
// schedules points from separate campaigns onto one worker pool) pass
// explicit knobs instead, so concurrent points never race on — or
// observe each other's — globals.
//
// The zero value is the default configuration: no faults, the historical
// implicit consistency model, no profiling.
type RunKnobs struct {
	// Faults, when non-nil, attaches a fresh injector built from this
	// schedule to every system (an injector serves exactly one run).
	Faults *faults.Spec
	// Consistency, when non-nil, attaches a fresh consistency model
	// built from a copy of this spec (one model serves exactly one run).
	Consistency *pfs.ConsistencySpec
	// CritPath attaches a fresh critical-path recorder to every system.
	CritPath bool
}

// snapshotKnobs captures the current process-wide defaults as explicit
// knobs, so a sweep reads the globals exactly once.
func snapshotKnobs() *RunKnobs {
	return &RunKnobs{
		Faults:      defaultFaultSpec,
		Consistency: defaultConsistency,
		CritPath:    defaultCritPath,
	}
}

// orDefaults resolves a nil receiver to the process-wide defaults.
func (k *RunKnobs) orDefaults() *RunKnobs {
	if k == nil {
		return snapshotKnobs()
	}
	return k
}

// sysOpts builds the per-run system options these knobs require. Every
// call hands out fresh run-scoped state (injector, consistency model,
// recorder): each serves exactly one run.
func (k *RunKnobs) sysOpts() []systems.Option {
	var opts []systems.Option
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
// Option order matches the historical newSystem exactly (faults, crit,
// consistency, then caller extras), so the global-default path stays
// byte-identical.
func (k *RunKnobs) newSystem(name string, nodes int, opts ...systems.Option) *systems.System {
	clk := vclock.New()
	opts = append(k.sysOpts(), opts...)
	if name == "summit" {
		return systems.Summit(clk, nodes, opts...)
	}
	return systems.CoriHaswell(clk, nodes, opts...)
}
