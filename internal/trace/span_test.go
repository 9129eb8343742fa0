package trace

import (
	"strings"
	"testing"
	"time"
)

func TestSpanRenderSortsEventsByTime(t *testing.T) {
	sp := NewSpan("root")
	// Appended out of order, as concurrent recorders would.
	sp.EventDurOn("late", 0, 3*time.Second, time.Second, "")
	sp.EventOn("early", 10, 1*time.Second, "")
	sp.EventOn("middle", 0, 2*time.Second, "")
	out := sp.String()
	early := strings.Index(out, "early")
	middle := strings.Index(out, "middle")
	late := strings.Index(out, "late")
	if early < 0 || middle < 0 || late < 0 {
		t.Fatalf("missing events:\n%s", out)
	}
	if !(early < middle && middle < late) {
		t.Fatalf("events not in time order:\n%s", out)
	}
}

func TestSpanRenderBreaksTiesByName(t *testing.T) {
	mk := func(order []string) string {
		sp := NewSpan("root")
		for _, name := range order {
			sp.EventOn(name, 0, time.Second, "")
		}
		return sp.String()
	}
	a := mk([]string{"b", "a", "c"})
	b := mk([]string{"c", "b", "a"})
	if a != b {
		t.Fatalf("same-time events rendered order-dependently:\n%s\nvs\n%s", a, b)
	}
	if ia, ib := strings.Index(a, " a"), strings.Index(a, " b"); ia > ib {
		t.Fatalf("ties not broken by name:\n%s", a)
	}
}

func TestSpanEventTracks(t *testing.T) {
	sp := NewSpan("rank0")
	sp.EventOn("staged", 4, time.Second, "rank0")
	sp.EventDurOn("transfer", 4, 2*time.Second, time.Second, "stream:asyncvol:rank0")
	sp.EventOn("plain", 0, 3*time.Second, "")
	evs := sp.Events()
	if evs[0].Track != "rank0" || evs[1].Track != "stream:asyncvol:rank0" || evs[2].Track != "" {
		t.Fatalf("tracks = %q, %q, %q", evs[0].Track, evs[1].Track, evs[2].Track)
	}
	if evs[1].Dur != time.Second {
		t.Fatalf("dur = %v", evs[1].Dur)
	}
}

const testHeader = "epoch,mode,ranks,bytes,io_seconds,comp_seconds,drain_seconds,rate_bytes_per_sec\n"

func TestReadCSVRejectsNonFiniteAndNegative(t *testing.T) {
	cases := map[string]string{
		"NaN io_seconds":         "0,sync,4,100,NaN,1,0,100\n",
		"+Inf io_seconds":        "0,sync,4,100,+Inf,1,0,100\n",
		"-Inf comp_seconds":      "0,sync,4,100,1,-Inf,0,100\n",
		"NaN drain_seconds":      "0,async,4,100,1,1,NaN,100\n",
		"negative io_seconds":    "0,sync,4,100,-1,1,0,100\n",
		"negative comp_seconds":  "0,sync,4,100,1,-2,0,100\n",
		"negative drain_seconds": "0,async,4,100,1,1,-0.5,100\n",
		"negative bytes":         "0,sync,4,-100,1,1,0,100\n",
	}
	for name, row := range cases {
		if _, err := ReadCSV(strings.NewReader(testHeader + row)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A well-formed row must still parse.
	if _, err := ReadCSV(strings.NewReader(testHeader + "0,sync,4,100,1,1,0,100\n")); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
}
