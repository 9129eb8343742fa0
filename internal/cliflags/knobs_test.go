package cliflags

import (
	"strings"
	"testing"
)

// TestKnobsParseDefaults pins the zero value to the flag defaults:
// no faults, implicit consistency, GPFS durability at seed 1.
func TestKnobsParseDefaults(t *testing.T) {
	p, err := Knobs{}.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults != nil {
		t.Error("zero Knobs produced a fault schedule")
	}
	if p.Consistency != nil {
		t.Error("zero Knobs produced a consistency spec")
	}
}

// TestKnobsParseCanonicalizes checks the String round-trips the
// campaign service relies on for spec normalization.
func TestKnobsParseCanonicalizes(t *testing.T) {
	p, err := Knobs{
		Faults:      "crashrank=3@95s",
		Consistency: "session",
		Durability:  "lustre",
	}.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults == nil || p.Faults.String() == "" {
		t.Error("fault schedule did not parse")
	}
	if p.Consistency == nil || !strings.Contains(p.Consistency.String(), "session") {
		t.Errorf("consistency spec = %v", p.Consistency)
	}
}

// TestKnobsParseErrors ensures each knob rejects garbage with an error
// naming the knob, mirroring the CLI flag messages.
func TestKnobsParseErrors(t *testing.T) {
	cases := []struct {
		k    Knobs
		want string
	}{
		{Knobs{Faults: "nonsense"}, "faults"},
		{Knobs{Consistency: "psychic"}, "consistency"},
		{Knobs{Durability: "ramdisk"}, "durability"},
	}
	for _, c := range cases {
		_, err := c.k.Parse()
		if err == nil {
			t.Errorf("%+v: no error", c.k)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.want+":") {
			t.Errorf("%+v: error %q does not name knob %q", c.k, err, c.want)
		}
	}
}
