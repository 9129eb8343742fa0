package cliflags

// This file reuses the knob grammar for non-flag frontends. The
// campaign service (internal/campaign) accepts scenario specs over
// HTTP whose knob fields — faults, consistency, durability — are the
// same strings the CLI flags take. Parsing them through Knobs means
// the HTTP surface and the flag surface share one grammar by
// construction, exactly as Register keeps the two CLIs from drifting.

import (
	"fmt"

	"asyncio/internal/experiments"
	"asyncio/internal/faults"
	"asyncio/internal/pfs"
)

// Knobs is the shared flag block's grammar as plain values. Set embeds
// it (Register binds the flags straight into it) and a scenario spec
// embeds it (the JSON names are the spec's wire format), so both parse
// through the one Parse below. Zero values mean "knob not set" and parse
// to the same defaults the flags have.
type Knobs struct {
	Faults         string `json:"faults,omitempty"`          // -faults spec (see internal/faults)
	Consistency    string `json:"consistency,omitempty"`     // -consistency spec (see internal/pfs)
	Durability     string `json:"durability,omitempty"`      // -durability: gpfs | lustre ("" = gpfs)
	DurabilitySeed int64  `json:"durability_seed,omitempty"` // -durability-seed (0 = 1, the flag default)
}

// Parse validates every knob with the parsers of the packages that own
// the grammars and returns the run knobs they configure: the fault
// schedule, the consistency spec (both templates — each run builds its
// own injector and model from them) and the durability model. Errors
// name the knob ("faults: …"); a CLI prefixes the dash.
func (k Knobs) Parse() (*experiments.RunKnobs, error) {
	rk := &experiments.RunKnobs{}
	if k.Faults != "" {
		sp, err := faults.ParseSpec(k.Faults)
		if err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
		rk.Faults = sp
	}
	if k.Consistency != "" {
		sp, err := pfs.ParseConsistency(k.Consistency)
		if err != nil {
			return nil, fmt.Errorf("consistency: %w", err)
		}
		rk.Consistency = sp
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
	rk.Durability = &dur
	return rk, nil
}

// durabilityConfig resolves a durability model name and seed.
func durabilityConfig(name string, seed int64) (pfs.DurabilityConfig, error) {
	switch name {
	case "gpfs":
		return pfs.GPFSDurability(seed), nil
	case "lustre":
		return pfs.LustreDurability(seed, 8), nil
	}
	return pfs.DurabilityConfig{}, fmt.Errorf("unknown durability %q (want gpfs or lustre)", name)
}
