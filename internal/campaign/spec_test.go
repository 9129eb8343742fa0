package campaign

import "testing"

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
