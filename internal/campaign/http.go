package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"asyncio/internal/campaign/sched"
)

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	return mux
}

// handleHealth is liveness: the process is up and serving HTTP. It
// stays 200 through a drain — kubelet-style probes must not kill a
// daemon that is gracefully finishing its queue. Readiness (should this
// instance receive new work?) lives at /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReady is readiness: 200 with store/recovery detail while
// accepting work, 503 once draining or closed.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.sched.Accepting() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	resp := map[string]any{"status": "ready"}
	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		resp["store"] = map[string]any{
			"points":     stats.Points,
			"segments":   stats.Segments,
			"live_bytes": stats.LiveBytes,
		}
		if rep := s.cfg.StoreRecovery; rep != nil {
			resp["recovery"] = rep.Summary()
			resp["recovery_clean"] = rep.Clean()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	s.reg.WriteCSV(w, "asyncio-serve")
}

// statusJSON is the campaign status wire form.
type statusJSON struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
}

func (c *Campaign) statusJSON() statusJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := statusJSON{ID: c.id, Kind: c.spec.Kind, Tenant: c.spec.Tenant,
		Total: len(c.results), Done: c.done, State: c.stateLocked()}
	if c.firstErr != nil {
		st.Error = c.firstErr.Error()
	}
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeSpecError answers a rejected submission: a *SpecError is a typed
// 400 naming the field, anything else plain text under status.
func writeSpecError(w http.ResponseWriter, err error, status int) {
	var se *SpecError
	if errors.As(err, &se) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": se.Msg, "field": se.Field})
		return
	}
	http.Error(w, err.Error(), status)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxSpecBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		writeSpecError(w, err, http.StatusBadRequest)
		return
	}
	c, known, err := s.submit(spec)
	if err != nil {
		var bp *sched.BackpressureError
		switch {
		case errors.As(err, &bp):
			w.Header().Set("Retry-After", strconv.Itoa(bp.RetryAfter))
			http.Error(w, bp.Error(), http.StatusTooManyRequests)
		case errors.Is(err, sched.ErrDraining):
			http.Error(w, "server is draining", http.StatusServiceUnavailable)
		default:
			writeSpecError(w, err, http.StatusInternalServerError)
		}
		return
	}
	if format := r.URL.Query().Get("wait"); format != "" {
		if format == "1" || format == "true" {
			format = ""
		}
		s.serveResult(r.Context(), w, c, format)
		return
	}
	status := http.StatusAccepted
	if known {
		status = http.StatusOK
	}
	writeJSON(w, status, c.statusJSON())
}

func (s *Server) campaignFor(w http.ResponseWriter, r *http.Request) *Campaign {
	c := s.campaigns.get(r.PathValue("id"))
	if c == nil {
		http.Error(w, "unknown campaign", http.StatusNotFound)
	}
	return c
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c := s.campaignFor(w, r); c != nil {
		writeJSON(w, http.StatusOK, c.statusJSON())
	}
}

// handleEvents streams the campaign's progress as NDJSON, one event per
// completed point, and closes when the campaign finishes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaignFor(w, r)
	if c == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	c.stream(r.Context(), func(batch []Event) {
		for _, ev := range batch {
			enc.Encode(ev)
		}
		if flusher != nil {
			flusher.Flush()
		}
	})
}

// handleResult blocks until the campaign finishes, then serves its
// result in the requested format.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if c := s.campaignFor(w, r); c != nil {
		s.serveResult(r.Context(), w, c, r.URL.Query().Get("format"))
	}
}

// serveResult waits for the campaign to end and writes its result in
// format, or the typed reason there is none.
func (s *Server) serveResult(ctx context.Context, w http.ResponseWriter, c *Campaign, format string) {
	select {
	case <-c.finished:
	case <-c.aborted:
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "campaign aborted: server shut down", "kind": "aborted"})
		return
	case <-ctx.Done():
		http.Error(w, "client went away", http.StatusRequestTimeout)
		return
	}
	c.mu.Lock()
	payloads, ferr := c.results, c.firstErr
	c.mu.Unlock()
	if ferr != nil {
		// Supervision failures are typed on the wire: clients (and the
		// chaos harness) distinguish a poisoned spec from a transient
		// panic or a missed deadline without parsing prose.
		if errors.Is(ferr, sched.ErrSupervised) {
			kind := "panic"
			var poe *sched.PoisonedError
			var dle *sched.DeadlineError
			switch {
			case errors.As(ferr, &poe):
				kind = "poisoned"
			case errors.As(ferr, &dle):
				kind = "deadline"
			}
			writeJSON(w, http.StatusInternalServerError,
				map[string]string{"error": ferr.Error(), "kind": kind})
			return
		}
		http.Error(w, "campaign failed: "+ferr.Error(), http.StatusInternalServerError)
		return
	}
	body, ctype, err := renderResult(c.spec, payloads, format)
	if err != nil {
		var se *SpecError
		if errors.As(err, &se) {
			http.Error(w, se.Error(), http.StatusBadRequest)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

// renderResult assembles a finished campaign's payloads into the
// requested format. Pure: same payloads and format, same bytes.
func renderResult(spec *Spec, payloads [][]byte, format string) ([]byte, string, error) {
	const (
		textType = "text/plain; charset=utf-8"
		jsonType = "application/json; charset=utf-8"
		csvType  = "text/csv; charset=utf-8"
	)
	if spec.Kind == "sweep" {
		switch format {
		case "", "table":
			b, err := AssembleSweepTable(spec, payloads)
			return b, textType, err
		case "json":
			b, err := sweepPointsJSON(spec, payloads)
			return b, jsonType, err
		case "csv":
			b, err := sweepPointsCSV(payloads)
			return b, csvType, err
		}
		return nil, "", specErrf("format", "unknown sweep format %q (want table, json, or csv)", format)
	}
	var name, ctype string
	switch format {
	case "", "summary":
		name, ctype = ArtifactSummary, textType
	case "trace":
		name, ctype = ArtifactTrace, csvType
	case "metrics":
		name, ctype = ArtifactMetrics, csvType
	case "perfetto":
		name, ctype = ArtifactPerfetto, jsonType
	case "critpath":
		name, ctype = ArtifactCritPath, jsonType
	case "bundle":
		return payloads[0], jsonType, nil
	default:
		return nil, "", specErrf("format", "unknown run format %q (want summary, trace, metrics, perfetto, critpath, or bundle)", format)
	}
	b, ok, err := bundleArtifact(payloads[0], name)
	if err == nil && !ok {
		err = fmt.Errorf("campaign: run bundle carries no %s", name)
	}
	return b, ctype, err
}
