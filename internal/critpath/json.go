// Deterministic JSON serialization of profiles, plus the human
// summary table the -critpath flag prints. All slices are emitted in
// the canonical orders analyze.go imposes, so the bytes are identical
// across runs and parallel workers.
package critpath

import (
	"encoding/json"
	"fmt"
	"io"
)

// MarshalBytes renders the profile as indented JSON with a trailing
// newline. The output is deterministic: field order is fixed by the
// struct, slice order by analysis.
func (p *Profile) MarshalBytes() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the profile's JSON form to w.
func (p *Profile) WriteJSON(w io.Writer) error {
	b, err := p.MarshalBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ParseProfile decodes a profile previously produced by MarshalBytes.
func ParseProfile(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("critpath: parse profile: %w", err)
	}
	if p.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("critpath: profile schema %d, want %d", p.SchemaVersion, SchemaVersion)
	}
	return &p, nil
}

// Render writes the human summary: the category blame table, coverage,
// and per-phase top causes.
func (p *Profile) Render(w io.Writer) {
	fmt.Fprintf(w, "critical path: %s\n", orLabel(p.Label, "(unlabeled run)"))
	fmt.Fprintf(w, "  makespan %.6fs, coverage %.1f%%\n", p.MakespanSeconds, p.Coverage*100)
	if len(p.Categories) == 0 {
		fmt.Fprintln(w, "  (no attribution recorded)")
		return
	}
	fmt.Fprintf(w, "  %-16s %14s %8s\n", "category", "seconds", "share")
	for _, c := range p.Categories {
		fmt.Fprintf(w, "  %-16s %14.6f %7.1f%%\n", c.Cause, c.Seconds, c.Share*100)
	}
	for _, ph := range p.Phases {
		top := Cause("-")
		if len(ph.Categories) > 0 {
			top = ph.Categories[0].Cause
		}
		fmt.Fprintf(w, "  phase %-10s %10.6fs..%-10.6fs top=%s\n",
			ph.Phase, ph.StartSeconds, ph.EndSeconds, top)
	}
	for _, win := range p.Windows {
		top := Cause("-")
		if len(win.Categories) > 0 {
			top = win.Categories[0].Cause
		}
		fmt.Fprintf(w, "  window %-10s %9.6fs..%-10.6fs top=%s\n",
			win.Name, win.StartSeconds, win.EndSeconds, top)
	}
}

func orLabel(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}
