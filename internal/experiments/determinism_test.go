package experiments

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// renderAll regenerates every registered experiment at tiny scale under
// the given worker count (set through the knobs) and returns one
// concatenated rendering, id by id in sorted order.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	k := &RunKnobs{Workers: workers}

	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var sb strings.Builder
	sc := tinyScale()
	for _, id := range ids {
		tab, err := reg[id](sc, k)
		if err != nil {
			t.Fatalf("%s (parallelism %d): %v", id, workers, err)
		}
		if err := tab.Render(&sb); err != nil {
			t.Fatalf("%s (parallelism %d): rendering: %v", id, workers, err)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestParallelDeterminism is the contract the parallel sweep driver
// must keep: every figure — rate sweeps, the steps and variability
// sweeps, the fault sweep, every ablation — renders byte-identical
// whether its points run serially or across any number of workers.
// Each point owns its clock and system, and results land at fixed
// indexes, so worker count and interleaving must be unobservable.
func TestParallelDeterminism(t *testing.T) {
	serial := renderAll(t, 1)
	for _, workers := range []int{2, 8} {
		parallel := renderAll(t, workers)
		if parallel != serial {
			t.Errorf("output differs between serial and %d workers:\n%s",
				workers, firstDiff(serial, parallel))
		}
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  serial:   " + al[i] + "\n  parallel: " + bl[i]
		}
	}
	return "outputs have different lengths"
}
