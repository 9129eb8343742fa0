package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer was created.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// tracing-off state: every method is a no-op, so the untraced pass pays
// one nil check per boundary.
type Tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []Span
	requests int
}

// newTracer preallocates room for the spans of a traced pass, so that
// growing the slice never lands inside a microsecond-long span.
func newTracer() *Tracer { return &Tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

// NewRequest returns an identifier for the spans of one request.
func (tr *Tracer) NewRequest() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.requests++
	return tr.requests
}

// OpenSpan is a started, not yet ended span.
type OpenSpan struct {
	tr *Tracer
	s  Span
}

// Start opens a span. parent may be nil for a root span.
func (tr *Tracer) Start(name string, parent *OpenSpan, req int) *OpenSpan {
	if tr == nil {
		return nil
	}
	o := &OpenSpan{tr: tr, s: Span{Name: name, Req: req, Start: int64(time.Since(tr.t0))}}
	tr.mu.Lock()
	tr.spans = append(tr.spans, Span{})
	o.s.ID = len(tr.spans)
	tr.mu.Unlock()
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	return o
}

// End closes the span and returns its duration.
func (o *OpenSpan) End() time.Duration {
	if o == nil {
		return 0
	}
	// The clock is read last, under the lock: the tracer's own work
	// belongs inside the span, not in the gap before its sibling.
	o.tr.mu.Lock()
	o.s.End = int64(time.Since(o.tr.t0))
	o.tr.spans[o.s.ID-1] = o.s
	o.tr.mu.Unlock()
	return time.Duration(o.s.End - o.s.Start)
}

// Spans returns the recorded spans in start order of their IDs.
func (tr *Tracer) Spans() []Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Span(nil), tr.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (parallel work) or stick out of the parent (clock skew between
// goroutines): covered time is the union of the child intervals clipped
// to the parent, so it is never counted twice and never exceeds the
// parent.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - coveredBy(s, children[s.ID])
	}
	return self
}

// coveredBy is the length of the union of kids' intervals inside parent.
func coveredBy(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, edge int64
	edge = parent.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return covered
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), one track per request id, loadable in
// chrome://tracing and ui.perfetto.dev.
func writeChromeTrace(w io.Writer, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Req,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
