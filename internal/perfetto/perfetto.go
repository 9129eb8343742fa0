// Package perfetto exports a run's observability data — trace.Span
// trees and metrics series — as Chrome trace-event JSON, the format
// ui.perfetto.dev and chrome://tracing open directly.
//
// The timeline is organized into process groups ("pid" in the format's
// vocabulary), one per execution domain of the simulator:
//
//	pid 1  ranks               one thread row per MPI rank
//	pid 2  background streams  one row per asyncvol background stream
//	pid 3  other               events from unnamed/auxiliary contexts
//	pid 4  pfs targets         storage-side copies of pfs:* transfer
//	                           events, one row per target
//	pid 5  metrics             counter tracks from the registry's series
//	                           plus one quantile track (p50/p95/p99)
//	                           per histogram
//	pid 6  critical path       overlay marking the run's on-critical-
//	                           path segments, one slice per segment
//	                           named by its dominant blame category
//
// Span events carry a Track (the vclock process that recorded them);
// events without one are attributed to their root span's name, which
// for core runs is the issuing rank. All output is deterministic: rows
// and events are sorted, and virtual timestamps do not depend on
// goroutine scheduling.
package perfetto

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/metrics"
	"asyncio/internal/trace"
)

// Process-group ids.
const (
	pidRanks = iota + 1
	pidStreams
	pidOther
	pidPFS
	pidMetrics
	pidCritPath
)

var pidNames = map[int]string{
	pidRanks:    "ranks",
	pidStreams:  "background streams",
	pidOther:    "other",
	pidPFS:      "pfs targets",
	pidMetrics:  "metrics",
	pidCritPath: "critical path",
}

// event is one trace-event object. Field order here fixes the JSON
// field order, part of the determinism contract.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// usec converts virtual time to the format's microsecond timestamps.
func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// pidFor classifies a track name into its process group.
func pidFor(track string) int {
	switch {
	case strings.HasPrefix(track, "rank"):
		return pidRanks
	case strings.HasPrefix(track, "stream:"):
		return pidStreams
	default:
		return pidOther
	}
}

// pfsTarget extracts the target name from a "pfs:<target>:<op>" event
// name ("" when the event is not a PFS transfer).
func pfsTarget(name string) string {
	rest, ok := strings.CutPrefix(name, "pfs:")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// flatEvent is a span event joined with its resolved track and span.
type flatEvent struct {
	trace.SpanEvent
	track string
	cat   string
}

// flatten walks a span tree depth-first, resolving each event's track.
func flatten(sp *trace.Span, root string, out *[]flatEvent) {
	if sp == nil {
		return
	}
	for _, ev := range sp.Events() {
		track := ev.Track
		if track == "" {
			track = root
		}
		*out = append(*out, flatEvent{SpanEvent: ev, track: track, cat: sp.Name()})
	}
	for _, c := range sp.Children() {
		flatten(c, root, out)
	}
}

// counterTrack is one metrics counter row: a named series of samples.
type counterTrack struct {
	name    string
	samples []metrics.Sample
}

// counterTracks collects the registry's counter rows: counter and
// gauge change-point series (when series recording is on) plus one
// single-sample quantile track per histogram percentile, stamped at
// the registry's end-of-run time. Order follows reg.Names(), so the
// tid assignment is deterministic.
func counterTracks(reg *metrics.Registry) []counterTrack {
	if reg == nil {
		return nil
	}
	var tracks []counterTrack
	series := reg.SeriesEnabled()
	final := reg.Now()
	for _, name := range reg.Names() {
		if c := reg.FindCounter(name); c != nil {
			if s := c.Series(); series && len(s) > 0 {
				tracks = append(tracks, counterTrack{name, s})
			}
		} else if g := reg.FindGauge(name); g != nil {
			if s := g.Series(); series && len(s) > 0 {
				tracks = append(tracks, counterTrack{name, s})
			}
		} else if h := reg.FindHistogram(name); h != nil {
			snap := h.Snapshot()
			if snap.Count == 0 {
				continue
			}
			for _, q := range []struct {
				suffix string
				v      float64
			}{{".p50", snap.P50}, {".p95", snap.P95}, {".p99", snap.P99}} {
				tracks = append(tracks, counterTrack{
					name + q.suffix,
					[]metrics.Sample{{At: final, V: q.v}},
				})
			}
		}
	}
	return tracks
}

// WriteProfile is Write plus an optional critical-path overlay: each
// profile segment becomes a slice on the "critical path" process row,
// named by the segment's dominant blame category and tagged with the
// rank/stream that carried the path through it.
func WriteProfile(w io.Writer, spans []*trace.Span, reg *metrics.Registry, prof *critpath.Profile) error {
	var flat []flatEvent
	for _, sp := range spans {
		flatten(sp, sp.Name(), &flat)
	}

	// Assign thread rows: tids are per-pid ordinals of the sorted track
	// names, so row order in the viewer matches rank/stream order and is
	// independent of event arrival.
	trackSet := make(map[int]map[string]bool)
	addTrack := func(pid int, name string) {
		if trackSet[pid] == nil {
			trackSet[pid] = make(map[string]bool)
		}
		trackSet[pid][name] = true
	}
	for _, fe := range flat {
		addTrack(pidFor(fe.track), fe.track)
		if tgt := pfsTarget(fe.Name); tgt != "" {
			addTrack(pidPFS, tgt)
		}
	}
	tids := make(map[int]map[string]int)
	for pid, set := range trackSet {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Sort(trackOrder(names))
		m := make(map[string]int, len(names))
		for i, n := range names {
			m[n] = i + 1
		}
		tids[pid] = m
	}

	ctracks := counterTracks(reg)

	var events []event
	meta := func(pid, tid int, kind, name string) {
		events = append(events, event{
			Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	for pid := pidRanks; pid <= pidCritPath; pid++ {
		switch pid {
		case pidMetrics:
			if len(ctracks) == 0 {
				continue
			}
		case pidCritPath:
			if prof == nil || len(prof.Segments) == 0 {
				continue
			}
		default:
			if len(tids[pid]) == 0 {
				continue
			}
		}
		meta(pid, 0, "process_name", pidNames[pid])
		if pid == pidCritPath {
			meta(pid, 1, "thread_name", "segments")
			continue
		}
		names := make([]string, 0, len(tids[pid]))
		for n := range tids[pid] {
			names = append(names, n)
		}
		sort.Sort(trackOrder(names))
		for _, n := range names {
			meta(pid, tids[pid][n], "thread_name", n)
		}
	}

	for _, fe := range flat {
		pid := pidFor(fe.track)
		ev := event{
			Name: fe.Name,
			Ph:   "X",
			Ts:   usec(fe.At),
			Pid:  pid,
			Tid:  tids[pid][fe.track],
			Cat:  fe.cat,
		}
		dur := usec(fe.Dur)
		ev.Dur = &dur
		if fe.Bytes > 0 {
			ev.Args = map[string]any{"bytes": fe.Bytes}
		}
		events = append(events, ev)
		if tgt := pfsTarget(fe.Name); tgt != "" {
			// Storage-side view: the same transfer on the target's row.
			cp := ev
			cp.Pid = pidPFS
			cp.Tid = tids[pidPFS][tgt]
			cp.Cat = fe.track
			events = append(events, cp)
		}
	}

	for i, ct := range ctracks {
		for _, s := range ct.samples {
			events = append(events, event{
				Name: ct.name,
				Ph:   "C",
				Ts:   usec(s.At),
				Pid:  pidMetrics,
				Tid:  i + 1,
				Args: map[string]any{"value": s.V},
			})
		}
	}

	if prof != nil {
		for _, seg := range prof.Segments {
			dur := (seg.EndSeconds - seg.StartSeconds) * 1e6
			events = append(events, event{
				Name: string(seg.TopCause),
				Ph:   "X",
				Ts:   seg.StartSeconds * 1e6,
				Dur:  &dur,
				Pid:  pidCritPath,
				Tid:  1,
				Cat:  "critpath",
				Args: map[string]any{"track": seg.Track},
			})
		}
	}

	sortEvents(events)
	doc := traceFile{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// sortEvents orders the document deterministically: metadata first,
// then by (pid, tid, ts, name). Metadata records additionally
// tie-break on their args name, so two records that agree on every
// outer field (e.g. duplicate thread_name rows) still have a total
// order and goldens never depend on emission order.
func sortEvents(events []event) {
	slices.SortStableFunc(events, func(a, b event) int {
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			if am {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.Pid, b.Pid); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Tid, b.Tid); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Ts, b.Ts); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		if am {
			return cmp.Compare(metaArgName(a), metaArgName(b))
		}
		return 0
	})
}

// metaArgName extracts a metadata record's args.name for sorting.
func metaArgName(e event) string {
	if s, ok := e.Args["name"].(string); ok {
		return s
	}
	return ""
}

// trackOrder sorts track names with numeric suffix awareness, so rank10
// follows rank9 rather than rank1.
type trackOrder []string

func (t trackOrder) Len() int      { return len(t) }
func (t trackOrder) Swap(i, j int) { t[i], t[j] = t[j], t[i] }
func (t trackOrder) Less(i, j int) bool {
	pi, ni, oki := splitNum(t[i])
	pj, nj, okj := splitNum(t[j])
	if oki && okj && pi == pj {
		return ni < nj
	}
	return t[i] < t[j]
}

// splitNum splits a trailing decimal number off a name.
func splitNum(s string) (prefix string, n int, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	for _, c := range s[i:] {
		n = n*10 + int(c-'0')
	}
	return s[:i], n, true
}
