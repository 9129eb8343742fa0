package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGoldens regenerates the committed figure goldens instead of
// comparing against them:
//
//	go test -run TestDefaultModelGoldenFigures ./internal/experiments -update-goldens
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden_*.txt from the current output")

// goldenFigures are the figure renders pinned byte-for-byte across PRs.
// They run with every knob at its default — no faults, no consistency
// model, serial engine — so any refactor that claims to be
// semantics-preserving when its switch is off must keep these identical.
var goldenFigures = []string{"fig3a", "fig3b", "fig3c", "fig4a", "fig4c", "fig5", "fig6", "fig7"}

// TestDefaultModelGoldenFigures renders each pinned figure at reduced
// scale and byte-compares it against the committed golden. The goldens
// were captured before the consistency-model refactor (PR 7 outputs),
// so a pass proves the default path is untouched.
func TestDefaultModelGoldenFigures(t *testing.T) {
	reg := Registry()
	for _, id := range goldenFigures {
		id := id
		t.Run(id, func(t *testing.T) {
			gen := reg[id]
			if gen == nil {
				t.Fatalf("figure %q not registered", id)
			}
			tab, err := gen(ReducedScale(), nil)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+id+".txt")
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens to capture): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output drifted from the committed golden.\n--- got ---\n%s\n--- want ---\n%s",
					id, buf.Bytes(), want)
			}
		})
	}
}
