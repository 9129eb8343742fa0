package campaign

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzScenarioSpec fuzzes the spec decoder end to end: no input may
// panic, every rejection must be the typed *SpecError the server maps
// to a 400, and for every accepted spec the canonical form must be a
// fixed point — re-encoding it (compactly or with whitespace) and
// decoding again yields the same canonical spec, content hash, and
// campaign ID. Field order and whitespace can never split the cache.
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(`{"sweep":"fig3a"}`))
	f.Add([]byte(`{"kind":"sweep","sweep":"fig3b","scale":"full","tenant":"alice"}`))
	f.Add([]byte("\n\t{ \"scale\": \"reduced\",\n\t  \"sweep\": \"fig3a\",\n\t  \"kind\": \"sweep\" }\n"))
	f.Add([]byte(`{"kind":"run","workload":"vpic","nodes":2,"steps":4,"mode":"adaptive","compute_seconds":30}`))
	f.Add([]byte(`{"kind":"run","workload":"vpic","nodes":1,"steps":6,"mode":"async","faults":"crashrank=3@95s","checkpoint_every":2,"journal":true,"durability":"lustre"}`))
	f.Add([]byte(`{"kind":"run","workload":"bdcats","system":"cori","consistency":"session"}`))
	f.Add([]byte(`{"sweep":"fig99"}`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`{"kind":"run","mode":"turbo"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"kind":"run","nodes":-5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("rejection is not a typed *SpecError: %T %v", err, err)
			}
			if se.Error() == "" {
				t.Fatal("empty SpecError message")
			}
			return
		}
		id, content := spec.ID(), spec.ContentHash()
		if len(id) != 16 || len(content) != 16 {
			t.Fatalf("hash lengths: id %q content %q", id, content)
		}
		if n, err := spec.PointCount(); err != nil || n < 1 {
			t.Fatalf("canonical spec has no points: n=%d err=%v", n, err)
		}

		// Canonicalization is a fixed point.
		again, err := spec.Canonicalize()
		if err != nil {
			t.Fatalf("re-canonicalizing a canonical spec failed: %v", err)
		}
		if *again != *spec {
			t.Fatalf("canonicalize not idempotent:\n%+v\n%+v", spec, again)
		}

		// Compact and indented re-encodings decode to the same identity.
		for _, encode := range []func(any) ([]byte, error){
			json.Marshal,
			func(v any) ([]byte, error) { return json.MarshalIndent(v, " \t", "  ") },
		} {
			b, err := encode(spec)
			if err != nil {
				t.Fatalf("encoding canonical spec: %v", err)
			}
			dec, err := DecodeSpec(b)
			if err != nil {
				t.Fatalf("round-tripping canonical spec %s: %v", b, err)
			}
			if dec.ID() != id || dec.ContentHash() != content {
				t.Fatalf("identity unstable across re-encoding:\n%s\nid %q -> %q, content %q -> %q",
					b, id, dec.ID(), content, dec.ContentHash())
			}
		}
	})
}
