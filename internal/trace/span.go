package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SpanEvent is one timestamped occurrence inside a Span. At is virtual
// time (the acting process's clock when the event happened); Dur is the
// virtual time the event covered (zero for instantaneous marks). Track
// names the execution context that recorded the event — conventionally
// the vclock process name ("rank3", "stream:asyncvol:rank3") — so
// exporters can place the same request's caller-side and
// background-side events on different timeline rows. Empty means
// "wherever the span lives".
type SpanEvent struct {
	Name  string
	Bytes int64
	At    time.Duration
	Dur   time.Duration
	Track string
}

// Span is a lightweight trace node for following one I/O request — or a
// whole epoch of them — across layers: the application rank that issued
// it, the connector that staged it, the background stream that executed
// it, and the file-system target that charged it.
//
// Spans form a tree (Child) and collect events (EventOn/EventDurOn). A
// span belongs to one run and is recorded into only by that run's
// processes. All methods are safe on a nil receiver, so code paths can
// record unconditionally: untraced requests simply carry a nil span and
// every call is a no-op.
type Span struct {
	name     string
	events   []SpanEvent
	children []*Span
}

// NewSpan returns an empty root span.
func NewSpan(name string) *Span { return &Span{name: name} }

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child creates and attaches a sub-span. Returns nil when s is nil, so
// chains of untraced spans stay no-ops.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name}
	s.children = append(s.children, c)
	return c
}

// EventOn records an instantaneous event attributed to track.
func (s *Span) EventOn(name string, bytes int64, at time.Duration, track string) {
	s.EventDurOn(name, bytes, at, 0, track)
}

// EventDurOn records an event covering [at, at+dur) attributed to track.
func (s *Span) EventDurOn(name string, bytes int64, at, dur time.Duration, track string) {
	if s == nil {
		return
	}
	s.events = append(s.events, SpanEvent{Name: name, Bytes: bytes, At: at, Dur: dur, Track: track})
}

// Events returns a copy of the span's own events (nil for a nil span).
func (s *Span) Events() []SpanEvent {
	if s == nil {
		return nil
	}
	return append([]SpanEvent(nil), s.events...)
}

// Children returns a copy of the attached sub-spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return append([]*Span(nil), s.children...)
}

// Find returns the first event with the given name in this span or any
// descendant, depth-first.
func (s *Span) Find(name string) (SpanEvent, bool) {
	if s == nil {
		return SpanEvent{}, false
	}
	for _, ev := range s.Events() {
		if ev.Name == name {
			return ev, true
		}
	}
	for _, c := range s.Children() {
		if ev, ok := c.Find(name); ok {
			return ev, true
		}
	}
	return SpanEvent{}, false
}

// String renders the span tree, one node or event per line.
func (s *Span) String() string {
	if s == nil {
		return "<nil span>"
	}
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s\n", indent, s.name)
	// Concurrent recorders (issuing rank vs. background stream) append
	// in nondeterministic order; render in virtual-time order, breaking
	// ties by name so equal-time events are stable too.
	events := s.Events()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Name < events[j].Name
	})
	for _, ev := range events {
		fmt.Fprintf(b, "%s  @%v", indent, ev.At)
		if ev.Dur > 0 {
			fmt.Fprintf(b, "+%v", ev.Dur)
		}
		fmt.Fprintf(b, " %s", ev.Name)
		if ev.Bytes > 0 {
			fmt.Fprintf(b, " (%d B)", ev.Bytes)
		}
		b.WriteByte('\n')
	}
	for _, c := range s.Children() {
		c.render(b, depth+1)
	}
}
