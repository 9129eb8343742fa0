package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Self time is the span minus the union of its direct children: nested
// grandchildren count against their own parent only, overlapping
// children are not counted twice, and a child that sticks out of the
// parent is clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 5, End: 15},
		{ID: 3, Parent: 1, Name: "resolve", Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: "get", Start: 25, End: 45},       // nested under resolve
		{ID: 5, Parent: 4, Name: "store.get", Start: 30, End: 40}, // nested two deep
		{ID: 6, Parent: 3, Name: "compute-a", Start: 50, End: 70}, // overlaps compute-b
		{ID: 7, Parent: 3, Name: "compute-b", Start: 60, End: 78},
		{ID: 8, Parent: 1, Name: "render", Start: 85, End: 120}, // sticks out of the request
		{ID: 9, Name: "other-root", Start: 200, End: 210},
	}
	want := map[int]int64{
		1: 100 - (10 + 60 + 15), // decode + resolve + render clipped to [85,100)
		2: 10,
		3: 60 - (20 + 28), // get [25,45) and the union [50,78) of the two computes
		4: 20 - 10,
		5: 10,
		6: 20,
		7: 18,
		8: 35,
		9: 10,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	// Children that cover the parent entirely, twice over, leave zero.
	full := []Span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 0, End: 10},
		{ID: 3, Parent: 1, Start: -5, End: 30},
	}
	if s := selfTimes(full)[1]; s != 0 {
		t.Errorf("fully covered span has self time %d, want 0", s)
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	var off *Tracer
	if sp := off.Start("x", nil, off.NewRequest()); sp != nil || sp.End() != 0 || off.Spans() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer()
	req := tr.NewRequest()
	root := tr.Start("request", nil, req)
	child := tr.Start("step", root, req)
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Parent != 0 || spans[1].Req != req {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End || spans[0].End <= spans[0].Start {
		t.Errorf("child [%d,%d) not inside parent [%d,%d)", spans[1].Start, spans[1].End, spans[0].Start, spans[0].End)
	}
	if tr.NewRequest() == req {
		t.Error("request ids repeat")
	}

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Name != "request" {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}
