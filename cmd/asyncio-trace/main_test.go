package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asyncio/internal/campaign"
)

// TestParityWithCampaignRunKind runs the same scenario through this
// tool (every export requested) and through the campaign service's run
// kind (campaign.ComputePoint, every export always on) — the two
// callers of experiments.Run — and demands byte-identical trace CSV,
// metrics CSV, Perfetto JSON and critical-path JSON. The summary lines
// are identical too: what this tool prints on stderr is the rendered
// critical-path table, then exactly the served summary; an aborted
// run's last line comes back as the error main prefixes and exits on.
func TestParityWithCampaignRunKind(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		args    []string
		aborted bool
	}{
		{
			name: "plain vpic async",
			spec: `{"kind":"run","workload":"vpic","nodes":2,"steps":2,"mode":"async"}`,
			args: []string{"-workload", "vpic", "-nodes", "2", "-steps", "2", "-mode", "async"},
		},
		{
			name: "crashrank with checkpoints and journal",
			spec: `{"kind":"run","workload":"vpic","nodes":1,"steps":6,"compute_seconds":1,"mode":"async",` +
				`"faults":"seed=7;crashrank=3@4s","checkpoint_every":2,"journal":true}`,
			args: []string{"-workload", "vpic", "-nodes", "1", "-steps", "6", "-compute", "1s", "-mode", "async",
				"-faults", "seed=7;crashrank=3@4s", "-checkpoint-every", "2", "-journal"},
			aborted: true,
		},
		{
			name: "commit consistency, checked",
			spec: `{"kind":"run","workload":"vpic","nodes":1,"steps":4,"compute_seconds":1,"mode":"async",` +
				`"consistency":"commit;check=1"}`,
			args: []string{"-workload", "vpic", "-nodes", "1", "-steps", "4", "-compute", "1s", "-mode", "async",
				"-consistency", "commit;check=1"},
		},
	}
	// One plain case per remaining run-kind workload: each reaches the
	// run function through a different driver.
	for _, w := range []string{"bdcats", "nyx", "castro", "eqsim"} {
		cases = append(cases, struct {
			name    string
			spec    string
			args    []string
			aborted bool
		}{
			name: "plain " + w + " async",
			spec: `{"kind":"run","workload":"` + w + `","nodes":1,"steps":2,"mode":"async"}`,
			args: []string{"-workload", w, "-nodes", "1", "-steps", "2", "-mode", "async"},
		})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := campaign.DecodeSpec([]byte(c.spec))
			if err != nil {
				t.Fatal(err)
			}
			payload, err := campaign.ComputePoint(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			served, err := campaign.DecodeBundle(payload)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			paths := map[string]string{
				campaign.ArtifactTrace:    filepath.Join(dir, "trace.csv"),
				campaign.ArtifactMetrics:  filepath.Join(dir, "metrics.csv"),
				campaign.ArtifactPerfetto: filepath.Join(dir, "trace.json"),
				campaign.ArtifactCritPath: filepath.Join(dir, "critpath.json"),
			}
			var stdout, stderr bytes.Buffer
			runErr := run(append(c.args,
				"-o", paths[campaign.ArtifactTrace], "-metrics", paths[campaign.ArtifactMetrics],
				"-trace-json", paths[campaign.ArtifactPerfetto], "-critpath", paths[campaign.ArtifactCritPath],
			), &stdout, &stderr)
			if (runErr != nil) != c.aborted {
				t.Fatalf("run error = %v, want an aborted run = %v", runErr, c.aborted)
			}
			if runErr != nil {
				stderr.WriteString(runErr.Error() + "\n")
			}

			fromCLI := map[string][]byte{campaign.ArtifactSummary: served[campaign.ArtifactSummary]}
			for name, path := range paths {
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s: %v (an aborted run must still write every export)", name, err)
				}
				if len(served[name]) == 0 || !bytes.Equal(got, served[name]) {
					t.Errorf("%s differs: %d bytes from the CLI, %d bytes served", name, len(got), len(served[name]))
				}
				fromCLI[name] = got
			}
			// The bundle body itself, not only what decodes out of it:
			// stored records and ?format=bundle clients hold the CLI's
			// files in exactly encoding/json's bytes plus a newline.
			if want, err := json.Marshal(fromCLI); err != nil || !bytes.Equal(payload, append(want, '\n')) {
				t.Errorf("the served bundle is not json.Marshal of the CLI's artifacts plus a newline (%v)", err)
			}
			summary := string(served[campaign.ArtifactSummary])
			table, ok := strings.CutSuffix(stderr.String(), summary)
			if !ok {
				t.Fatalf("CLI stderr does not end with the served summary:\n--- stderr\n%s--- served\n%s", stderr.String(), summary)
			}
			if !strings.HasPrefix(table, "critical path: ") || strings.Contains(table, "epochs, mode=") {
				t.Errorf("CLI stderr ahead of the summary is not just the critical-path table:\n%s", table)
			}
			if got := strings.Contains(summary, "\nrun aborted: "); got != c.aborted {
				t.Errorf("served summary reports an aborted run = %v, want %v:\n%s", got, c.aborted, summary)
			}
		})
	}
}
