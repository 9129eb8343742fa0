package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"asyncio/internal/experiments"
)

// startService spins up an in-process server over a loopback listener.
func startService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return startServiceWith(t, cfg, ComputePoint, time.Now)
}

// startServiceWith is startService with the compute function and the
// deadline clock injected, for the supervision wire tests.
func startServiceWith(t *testing.T, cfg Config, compute func(*Spec, int) ([]byte, error), now func() time.Time) (*Server, *httptest.Server) {
	t.Helper()
	svc := newServer(cfg, compute, now)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading POST %s body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading GET %s body: %v", path, err)
	}
	return resp.StatusCode, b
}

func counter(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	c := s.Metrics().FindCounter(name)
	if c == nil {
		return 0
	}
	return c.Value()
}

const fig3aSpec = `{"kind":"sweep","sweep":"fig3a","scale":"reduced"}`

// The same campaign with fields reordered, whitespace scattered, and
// defaults spelled out — must canonicalize to the identical content.
const fig3aPermuted = `
	{
	  "scale":   "reduced",
	  "tenant":  "default",
	  "sweep":   "fig3a",
	  "kind":    "sweep"
	}
`

// TestServiceSweepDeterminism is the service-level contract: the same
// campaign served twice (second time from cache), submitted as a
// permuted duplicate, or computed by cold servers with different worker
// counts, always yields byte-identical bodies — and those bytes are
// exactly what the CLI sweep path renders.
func TestServiceSweepDeterminism(t *testing.T) {
	// The CLI path: what `asyncio-bench -exp fig3a -scale reduced` prints.
	tab, err := experiments.Registry()["fig3a"](experiments.ReducedScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tab.Render(&want); err != nil {
		t.Fatal(err)
	}

	svc, ts := startService(t, Config{Workers: 4})

	code, _, first := post(t, ts, "/v1/campaigns?wait=table", fig3aSpec)
	if code != http.StatusOK {
		t.Fatalf("first POST: status %d: %s", code, first)
	}
	if !bytes.Equal(first, want.Bytes()) {
		t.Errorf("served table drifted from the CLI path.\n--- CLI ---\n%s\n--- served ---\n%s", want.Bytes(), first)
	}
	misses := counter(t, svc, "campaign.cache.misses")
	if misses == 0 {
		t.Error("first pass should have missed the cache")
	}

	// Second pass: identical spec, must come from cache with zero new
	// misses and identical bytes.
	code, _, second := post(t, ts, "/v1/campaigns?wait=table", fig3aSpec)
	if code != http.StatusOK {
		t.Fatalf("second POST: status %d: %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached pass differs from cold pass")
	}
	if got := counter(t, svc, "campaign.cache.misses"); got != misses {
		t.Errorf("second pass recomputed: misses %d -> %d", misses, got)
	}

	// Permuted duplicate: same canonical content, same campaign ID,
	// same bytes.
	code, _, permuted := post(t, ts, "/v1/campaigns?wait=table", fig3aPermuted)
	if code != http.StatusOK {
		t.Fatalf("permuted POST: status %d: %s", code, permuted)
	}
	if !bytes.Equal(first, permuted) {
		t.Error("permuted duplicate spec produced different bytes")
	}

	// Cold servers at different worker counts: completion order differs,
	// assembled bytes must not.
	for _, workers := range []int{1, 8} {
		_, cold := startService(t, Config{Workers: workers})
		code, _, body := post(t, cold, "/v1/campaigns?wait=table", fig3aSpec)
		if code != http.StatusOK {
			t.Fatalf("workers=%d POST: status %d: %s", workers, code, body)
		}
		if !bytes.Equal(first, body) {
			t.Errorf("workers=%d produced different bytes", workers)
		}
	}
}

// TestServiceCacheHitRatio pins the acceptance criterion: a
// duplicate-heavy campaign stream keeps the cache hit ratio above 0.9,
// asserted against the self-instrumentation registry.
func TestServiceCacheHitRatio(t *testing.T) {
	svc, ts := startService(t, Config{Workers: 2})
	for i := 0; i < 20; i++ {
		code, _, body := post(t, ts, "/v1/campaigns?wait=table", fig3aSpec)
		if code != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", i, code, body)
		}
	}
	hits := counter(t, svc, "campaign.cache.hits")
	misses := counter(t, svc, "campaign.cache.misses")
	ratio := float64(hits) / float64(hits+misses)
	if ratio <= 0.9 {
		t.Errorf("cache hit ratio %.3f (hits %d, misses %d), want > 0.9", ratio, hits, misses)
	}
}

// TestServiceRunKindDeterminism covers the run kind: every artifact in
// the bundle is byte-identical between a cold computation and the
// cached replay, and the summary names the run.
func TestServiceRunKindDeterminism(t *testing.T) {
	_, ts := startService(t, Config{Workers: 2})
	spec := `{"kind":"run","workload":"vpic","nodes":1,"steps":2,"mode":"async","compute_seconds":1}`

	code, _, cold := post(t, ts, "/v1/campaigns?wait=bundle", spec)
	if code != http.StatusOK {
		t.Fatalf("cold POST: status %d: %s", code, cold)
	}
	code, _, cached := post(t, ts, "/v1/campaigns?wait=bundle", spec)
	if code != http.StatusOK {
		t.Fatalf("cached POST: status %d: %s", code, cached)
	}
	if !bytes.Equal(cold, cached) {
		t.Error("run bundle differs between cold and cached serve")
	}
	bundle, err := DecodeBundle(cold)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ArtifactTrace, ArtifactMetrics, ArtifactPerfetto, ArtifactCritPath, ArtifactSummary} {
		if len(bundle[name]) == 0 {
			t.Errorf("bundle artifact %s is missing or empty", name)
		}
	}
	if !bytes.Contains(bundle[ArtifactSummary], []byte("vpic on summit")) {
		t.Errorf("summary does not name the run: %q", bundle[ArtifactSummary])
	}
}

// TestServiceStatusAndEvents exercises the status and progress
// endpoints end to end.
func TestServiceStatusAndEvents(t *testing.T) {
	_, ts := startService(t, Config{Workers: 2})
	spec := `{"kind":"run","workload":"vpic","nodes":1,"steps":1,"mode":"sync","compute_seconds":1}`
	code, _, body := post(t, ts, "/v1/campaigns", spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST: status %d: %s", code, body)
	}
	var st struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status: %v (%s)", err, body)
	}
	if st.Total != 1 {
		t.Fatalf("run campaign total = %d, want 1", st.Total)
	}

	// The events stream closes once the single point lands.
	code, evBody := get(t, ts, "/v1/campaigns/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	if !bytes.Contains(evBody, []byte(`"done":1`)) {
		t.Errorf("events stream missing completion record: %s", evBody)
	}

	code, stBody := get(t, ts, "/v1/campaigns/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if !bytes.Contains(stBody, []byte(`"state":"complete"`)) {
		t.Errorf("campaign not complete after events closed: %s", stBody)
	}

	code, sum := get(t, ts, "/v1/campaigns/"+st.ID+"/result?format=summary")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, sum)
	}
	if !bytes.Contains(sum, []byte("vpic on summit")) {
		t.Errorf("summary result: %q", sum)
	}
}

// TestServiceTypedErrors pins the HTTP error surface: malformed specs
// are typed 400s, unknown campaigns 404, overflow 429 with Retry-After,
// and draining 503.
func TestServiceTypedErrors(t *testing.T) {
	svc, ts := startService(t, Config{Workers: 1, QueueDepth: 2})

	// An otherwise valid sweep carrying the execution knob the spec no
	// longer has: rejected like any unknown field, never silently ignored.
	removedKnob, err := os.ReadFile("testdata/spec_removed_knob.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{`,
		`{"sweep":"fig99"}`,
		`{"kind":"run","mode":"turbo"}`,
		`{"sweep":"fig3a","nodes":4}`,
		`{"unknown_field":1}`,
		`{"kind":"run","faults":"nonsense"}`,
		string(removedKnob),
	} {
		code, _, body := post(t, ts, "/v1/campaigns", bad)
		if code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d (%s), want 400", bad, code, body)
		}
	}

	if code, _ := get(t, ts, "/v1/campaigns/deadbeefdeadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", code)
	}

	// Backpressure, deterministically: pause dispatch so nothing
	// drains, fill the queue past its depth with distinct cheap specs.
	svc.sched.Pause()
	fill := func(i int) (int, http.Header) {
		spec := fmt.Sprintf(`{"kind":"run","workload":"vpic","nodes":1,"steps":1,"compute_seconds":%d}`, i+1)
		code, hdr, _ := post(t, ts, "/v1/campaigns", spec)
		return code, hdr
	}
	if code, _ := fill(0); code != http.StatusAccepted {
		t.Fatalf("fill 0: status %d", code)
	}
	if code, _ := fill(1); code != http.StatusAccepted {
		t.Fatalf("fill 1: status %d", code)
	}
	code, hdr := fill(2)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	rejected := counter(t, svc, "campaign.rejected")
	if rejected == 0 {
		t.Error("429 not accounted in campaign.rejected")
	}
	svc.sched.Resume()

	// Drain: stops admission with 503. Readiness agrees; liveness does
	// not flinch — a draining daemon is still alive.
	if err := svc.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _, _ := post(t, ts, "/v1/campaigns", fig3aSpec); code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining: status %d, want 503", code)
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", code)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200 (liveness)", code)
	}
}
