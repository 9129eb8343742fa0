package perfetto

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/metrics"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite golden files")

// twoRankFixture builds the span trees and registry of a miniature
// two-rank async run: each rank stages a write, the background stream
// executes it against the PFS, and the queue-depth gauge tracks the
// overlap. All timestamps are fixed so the fixture is deterministic.
func twoRankFixture(t *testing.T) ([]*trace.Span, *metrics.Registry) {
	t.Helper()
	ms := time.Millisecond
	spans := make([]*trace.Span, 2)
	for r, name := range []string{"rank0", "rank1"} {
		sp := trace.NewSpan(name)
		ep := sp.Child("epoch0")
		off := time.Duration(r) * ms
		ep.EventOn("asyncvol:stage", 1<<20, off, name)
		ep.EventDurOn("pfs:alpine:write", 1<<20, 10*ms+off, 5*ms, "stream:asyncvol:"+name)
		ep.EventOn("epoch-commit", 0, 20*ms+off, "") // no track: lands on the root's row
		spans[r] = sp
	}

	clk := vclock.New()
	reg := metrics.NewRegistry(clk)
	reg.EnableSeries()
	depth := reg.Gauge("asyncvol.queue_depth")
	ops := reg.Counter("asyncvol.ops_enqueued")
	clk.Go("p", func(p *vclock.Proc) {
		depth.Add(2)
		ops.Add(2)
		p.Sleep(15 * ms)
		depth.Add(-2)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	// Histograms have no change-point series; they surface as one
	// single-sample quantile track per percentile.
	reg.Histogram("asyncvol.drain_wait_seconds").Observe(0.015)
	return spans, reg
}

func TestGoldenTwoRankRun(t *testing.T) {
	spans, reg := twoRankFixture(t)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, spans, reg, nil); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "two_rank_run.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/perfetto -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output diverged from golden file:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	spans, reg := twoRankFixture(t)
	var a, b bytes.Buffer
	if err := WriteProfile(&a, spans, reg, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteProfile(&b, spans, reg, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same data differ")
	}
}

// decode parses the output back for structural assertions.
func decode(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

func TestTrackLayout(t *testing.T) {
	spans, reg := twoRankFixture(t)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, spans, reg, nil); err != nil {
		t.Fatal(err)
	}
	events := decode(t, buf.Bytes())

	// Collect thread_name metadata per pid.
	threads := make(map[float64][]string)
	for _, ev := range events {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			pid := ev["pid"].(float64)
			args := ev["args"].(map[string]any)
			threads[pid] = append(threads[pid], args["name"].(string))
		}
	}
	wantThreads := map[float64][]string{
		1: {"rank0", "rank1"},
		2: {"stream:asyncvol:rank0", "stream:asyncvol:rank1"},
		4: {"alpine"},
	}
	for pid, want := range wantThreads {
		got := threads[pid]
		if len(got) != len(want) {
			t.Fatalf("pid %v threads = %v, want %v", pid, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pid %v threads = %v, want %v", pid, got, want)
			}
		}
	}

	// The PFS transfer appears twice: on its stream row and on the
	// target's storage-side row. Counter samples land on the metrics pid.
	var streamCopies, pfsCopies, counterSamples int
	for _, ev := range events {
		switch {
		case ev["name"] == "pfs:alpine:write" && ev["pid"].(float64) == 2:
			streamCopies++
		case ev["name"] == "pfs:alpine:write" && ev["pid"].(float64) == 4:
			pfsCopies++
		case ev["ph"] == "C":
			counterSamples++
			if ev["pid"].(float64) != 5 {
				t.Fatalf("counter sample on pid %v", ev["pid"])
			}
		}
	}
	if streamCopies != 2 || pfsCopies != 2 {
		t.Fatalf("pfs write copies: stream=%d pfs=%d, want 2 and 2", streamCopies, pfsCopies)
	}
	// queue_depth has 2 change points, ops_enqueued has 1, and the
	// histogram contributes one sample on each of its three quantile
	// tracks.
	if counterSamples != 6 {
		t.Fatalf("counter samples = %d, want 6", counterSamples)
	}
	quantiles := make(map[string]float64)
	for _, ev := range events {
		if ev["ph"] == "C" && strings.HasPrefix(ev["name"].(string), "asyncvol.drain_wait_seconds.") {
			args := ev["args"].(map[string]any)
			quantiles[ev["name"].(string)] = args["value"].(float64)
		}
	}
	for _, q := range []string{"p50", "p95", "p99"} {
		if v := quantiles["asyncvol.drain_wait_seconds."+q]; v != 0.015 {
			t.Fatalf("%s quantile track = %v, want 0.015", q, v)
		}
	}
}

// TestCritPathOverlay checks that WriteProfile adds the pid-6 overlay:
// one slice per profile segment, named by its top cause.
func TestCritPathOverlay(t *testing.T) {
	spans, reg := twoRankFixture(t)
	prof := &critpath.Profile{
		SchemaVersion:   critpath.SchemaVersion,
		MakespanSeconds: 0.025,
		Segments: []critpath.Segment{
			{StartSeconds: 0, EndSeconds: 0.010, Track: "rank0", TopCause: critpath.Compute},
			{StartSeconds: 0.010, EndSeconds: 0.025, Track: "rank1", TopCause: critpath.PFSTransfer},
		},
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, spans, reg, prof); err != nil {
		t.Fatal(err)
	}
	events := decode(t, buf.Bytes())

	var overlay []map[string]any
	var procName, threadName string
	for _, ev := range events {
		if ev["pid"].(float64) != 6 {
			continue
		}
		switch {
		case ev["ph"] == "M" && ev["name"] == "process_name":
			procName = ev["args"].(map[string]any)["name"].(string)
		case ev["ph"] == "M" && ev["name"] == "thread_name":
			threadName = ev["args"].(map[string]any)["name"].(string)
		case ev["ph"] == "X":
			overlay = append(overlay, ev)
		}
	}
	if procName != "critical path" || threadName != "segments" {
		t.Fatalf("overlay metadata = (%q, %q), want (critical path, segments)", procName, threadName)
	}
	if len(overlay) != 2 {
		t.Fatalf("overlay slices = %d, want 2", len(overlay))
	}
	if overlay[0]["name"] != string(critpath.Compute) || overlay[1]["name"] != string(critpath.PFSTransfer) {
		t.Fatalf("overlay names = %v, %v", overlay[0]["name"], overlay[1]["name"])
	}
	if tr := overlay[1]["args"].(map[string]any)["track"]; tr != "rank1" {
		t.Fatalf("second segment track = %v, want rank1", tr)
	}
	if dur := overlay[1]["dur"].(float64); math.Abs(dur-15000) > 1e-6 {
		t.Fatalf("second segment dur = %v usec, want 15000", dur)
	}

	// Write without a profile must not grow a pid-6 group.
	var plain bytes.Buffer
	if err := WriteProfile(&plain, spans, reg, nil); err != nil {
		t.Fatal(err)
	}
	for _, ev := range decode(t, plain.Bytes()) {
		if ev["pid"].(float64) == 6 {
			t.Fatal("Write without a profile emitted a critical-path event")
		}
	}
}

func TestWriteEmptyInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if events := decode(t, buf.Bytes()); len(events) != 0 {
		t.Fatalf("empty inputs produced %d events", len(events))
	}
}

func TestTrackOrderNumericSuffix(t *testing.T) {
	names := []string{"rank10", "rank9", "rank1", "stream", "rank2"}
	want := []string{"rank1", "rank2", "rank9", "rank10", "stream"}
	sort.Sort(trackOrder(names))
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", names, want)
		}
	}
}
