// Differential profiles: where did the time move between two runs?
package critpath

import "sort"

// DiffEntry is one category's movement between two profiles.
type DiffEntry struct {
	Cause        Cause   `json:"cause"`
	ASeconds     float64 `json:"a_seconds"`
	BSeconds     float64 `json:"b_seconds"`
	DeltaSeconds float64 `json:"delta_seconds"`
	AShare       float64 `json:"a_share"`
	BShare       float64 `json:"b_share"`
	DeltaShare   float64 `json:"delta_share"`
}

// DiffReport compares two profiles category by category.
type DiffReport struct {
	ALabel           string      `json:"a_label"`
	BLabel           string      `json:"b_label"`
	AMakespanSeconds float64     `json:"a_makespan_seconds"`
	BMakespanSeconds float64     `json:"b_makespan_seconds"`
	Entries          []DiffEntry `json:"entries"`
}

// Diff compares profile a against profile b, reporting for every
// category present in either how much attributed time (and share of
// makespan) moved. Entries are sorted by descending |delta seconds|,
// ties by cause name.
func Diff(a, b *Profile) *DiffReport {
	causes := map[Cause]bool{}
	for _, c := range a.Categories {
		causes[c.Cause] = true
	}
	for _, c := range b.Categories {
		causes[c.Cause] = true
	}
	rep := &DiffReport{
		ALabel:           orLabel(a.Label, "a"),
		BLabel:           orLabel(b.Label, "b"),
		AMakespanSeconds: a.MakespanSeconds,
		BMakespanSeconds: b.MakespanSeconds,
	}
	for c := range causes {
		e := DiffEntry{
			Cause:    c,
			ASeconds: a.CategorySeconds(c),
			BSeconds: b.CategorySeconds(c),
			AShare:   a.CategoryShare(c),
			BShare:   b.CategoryShare(c),
		}
		e.DeltaSeconds = e.BSeconds - e.ASeconds
		e.DeltaShare = e.BShare - e.AShare
		rep.Entries = append(rep.Entries, e)
	}
	sort.Slice(rep.Entries, func(i, j int) bool {
		ai, aj := abs(rep.Entries[i].DeltaSeconds), abs(rep.Entries[j].DeltaSeconds)
		if ai != aj {
			return ai > aj
		}
		return rep.Entries[i].Cause < rep.Entries[j].Cause
	})
	return rep
}

// Entry returns the diff entry for one cause (zero entry when absent).
func (d *DiffReport) Entry(c Cause) DiffEntry {
	for _, e := range d.Entries {
		if e.Cause == c {
			return e
		}
	}
	return DiffEntry{Cause: c}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
