package cliflags

// This file reuses the knob grammar for non-flag frontends. The
// campaign service (internal/campaign) accepts scenario specs over
// HTTP whose knob fields — faults, consistency, durability — are the
// same strings the CLI flags take. Parsing them through Knobs means
// the HTTP surface and the flag surface share one grammar by
// construction, exactly as Register keeps the two CLIs from drifting.

import (
	"fmt"

	"asyncio/internal/faults"
	"asyncio/internal/pfs"
)

// Knobs is the shared flag block's grammar as plain values: the form a
// scenario spec carries them in. Zero values mean "knob not set" and
// parse to the same defaults the flags have.
type Knobs struct {
	Faults         string // -faults spec (see internal/faults)
	Consistency    string // -consistency spec (see internal/pfs)
	Durability     string // -durability: gpfs | lustre ("" = gpfs)
	DurabilitySeed int64  // -durability-seed (0 = 1, the flag default)
}

// ParsedKnobs is the validated, canonicalized form of a Knobs block.
// The spec pointers are schedules/templates, not run-scoped state: build
// a fresh injector (faults.FromSpec) or consistency model
// (pfs.NewConsistency of a copy) per run.
type ParsedKnobs struct {
	Faults      *faults.Spec         // nil when no schedule was given
	Consistency *pfs.ConsistencySpec // nil = historical implicit model
	Durability  pfs.DurabilityConfig
}

// Parse validates every knob with the same parsers the CLI flags use
// and returns the parsed forms. Errors name the knob, mirroring the
// CLIs' "-faults: ..." messages.
func (k Knobs) Parse() (*ParsedKnobs, error) {
	p := &ParsedKnobs{}
	if k.Faults != "" {
		sp, err := faults.ParseSpec(k.Faults)
		if err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
		p.Faults = sp
	}
	if k.Consistency != "" {
		sp, err := pfs.ParseConsistency(k.Consistency)
		if err != nil {
			return nil, fmt.Errorf("consistency: %w", err)
		}
		p.Consistency = sp
	}
	name := k.Durability
	if name == "" {
		name = "gpfs"
	}
	seed := k.DurabilitySeed
	if seed == 0 {
		seed = 1
	}
	dur, err := durabilityConfig(name, seed)
	if err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	p.Durability = dur
	return p, nil
}

// durabilityConfig resolves a durability model name and seed — shared
// by Set.DurabilityConfig (the flags) and Knobs.Parse (the service).
func durabilityConfig(name string, seed int64) (pfs.DurabilityConfig, error) {
	switch name {
	case "gpfs":
		return pfs.GPFSDurability(seed), nil
	case "lustre":
		return pfs.LustreDurability(seed, 8), nil
	}
	return pfs.DurabilityConfig{}, fmt.Errorf("unknown durability %q (want gpfs or lustre)", name)
}
