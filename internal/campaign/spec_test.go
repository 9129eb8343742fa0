package campaign

import (
	"errors"
	"testing"
)

// TestSpecIdentityStable pins content hashes, campaign IDs and point
// keys to the values stored points and cached artifacts were written
// under: a change to the spec's fields must never re-key existing data.
func TestSpecIdentityStable(t *testing.T) {
	for _, tc := range []struct {
		raw, content, id string
	}{
		{`{"kind":"sweep","sweep":"fig3a","scale":"reduced"}`,
			"2d80566ce9f2561b", "269374670c8b1557"},
		{`{"kind":"run","workload":"vpic","nodes":2,"steps":4,"mode":"async","faults":"crashrank=3@95s","consistency":"session","checkpoint_every":2,"journal":true,"durability":"lustre","tenant":"alice"}`,
			"56bb9fb1e100ff2d", "f2da369f92b8d396"},
	} {
		s, err := DecodeSpec([]byte(tc.raw))
		if err != nil {
			t.Fatalf("%s: %v", tc.raw, err)
		}
		if got := s.ContentHash(); got != tc.content {
			t.Errorf("%s: content hash %s, want %s", tc.raw, got, tc.content)
		}
		if got := s.ID(); got != tc.id {
			t.Errorf("%s: campaign ID %s, want %s", tc.raw, got, tc.id)
		}
		if got, want := s.PointKey(1), tc.content+"/1"; got != want {
			t.Errorf("%s: point key %s, want %s", tc.raw, got, want)
		}
	}
}

// TestRunSpecNameErrors pins the 400s for names the run-kind tables do
// not hold. The tables live in internal/experiments; the field and the
// text a client sees were fixed when this package still listed the
// names itself.
func TestRunSpecNameErrors(t *testing.T) {
	for _, tc := range []struct {
		raw, field, msg string
	}{
		{`{"kind":"run","workload":"lammps"}`, "workload", `unknown workload "lammps"`},
		{`{"kind":"run","system":"frontier"}`, "system", `unknown system "frontier" (want summit or cori)`},
		{`{"kind":"run","mode":"turbo"}`, "mode", `unknown mode "turbo" (want sync, async, or adaptive)`},
		{`{"kind":"run","workload":"bdcats","journal":true}`, "checkpoint_every",
			"checkpoint-every/journal are only wired into the vpic workload"},
		{`{"kind":"run","workload":"nyx","checkpoint_every":2}`, "checkpoint_every",
			"checkpoint-every/journal are only wired into the vpic workload"},
	} {
		_, err := DecodeSpec([]byte(tc.raw))
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v, want a *SpecError", tc.raw, err)
			continue
		}
		if se.Field != tc.field || se.Msg != tc.msg {
			t.Errorf("%s: SpecError{%q, %q}, want {%q, %q}", tc.raw, se.Field, se.Msg, tc.field, tc.msg)
		}
	}
}
