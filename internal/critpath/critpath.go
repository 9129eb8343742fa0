// Package critpath is the simulator's causal critical-path profiler.
//
// Subsystems record every blocking interval as a typed Edge — what a
// process was waiting on, from when to when in virtual time — into a
// Recorder attached to the run's System. After the run, analysis (see
// analyze.go) exploits the BSP structure of core.Run: the global MPI
// collective sequence partitions the makespan into segments, each
// segment's critical rank is the last rank to arrive at the closing
// collective, and that rank's typed edges attribute the segment's
// virtual time into blame categories (compute, collective-wait,
// queue-wait, stage-copy, PFS-transfer, metadata, fsync/journal,
// retry/backoff, fault-stall). The result is a Profile: per-category
// and per-epoch blame explaining where the makespan went, exportable
// as deterministic JSON (json.go), a pprof profile (pprof.go), and a
// Perfetto overlay (internal/perfetto).
//
// Everything recorded is a pure function of virtual time, so the edge
// multiset — and therefore every exported byte — is identical across
// runs and -parallel workers. The Recorder itself only guards its
// slices with a mutex; canonical ordering is imposed once, at analysis
// time.
//
// The package deliberately imports nothing from the rest of the
// simulator: every instrumented layer (vclock, mpi, asyncvol,
// taskengine, ioreq, pfs, faults, core) imports critpath, never the
// reverse. The Recorder structurally implements vclock.WaitObserver.
package critpath

import (
	"sort"
	"strings"
	"time"
)

// Cause classifies what a blocked process was waiting on.
type Cause string

// Blame categories, in ascending attribution precedence (see
// precedenceOf). When two edges of one track overlap, the higher
// precedence cause wins the overlap: a retry backoff inside a metadata
// bracket is retry time, not metadata time.
const (
	// Compute is application computation between I/O phases.
	Compute Cause = "compute"
	// CollectiveWait is time blocked in an MPI collective rendezvous.
	CollectiveWait Cause = "collective-wait"
	// QueueWait is time blocked on asynchronous machinery: backpressure,
	// drain barriers, event-set waits, stream scheduling, task futures.
	QueueWait Cause = "queue-wait"
	// StageCopy is the transactional staging copy of the async VOL.
	StageCopy Cause = "stage-copy"
	// PFSTransfer is time inside a parallel-file-system data transfer.
	PFSTransfer Cause = "pfs-transfer"
	// Metadata is time inside file-system metadata operations.
	Metadata Cause = "metadata"
	// VisibilityWait is consistency-model cost: the time a rank spends
	// making its writes visible to other ranks (POSIX locking, session
	// lease validation, MPI-IO sync tracking, publish barriers at close/
	// sync/commit points). Recorded by pfs.Consistency.
	VisibilityWait Cause = "visibility-wait"
	// FsyncJournal is durability cost: fsync barriers and write-ahead
	// journal appends.
	FsyncJournal Cause = "fsync-journal"
	// RetryBackoff is time sleeping between I/O retry attempts.
	RetryBackoff Cause = "retry-backoff"
	// FaultStall is time directly injected by a fault schedule
	// (metadata stalls, background-stream stalls).
	FaultStall Cause = "fault-stall"
	// Unattributed is critical-path time no typed edge covered. Analysis
	// emits it; subsystems never record it.
	Unattributed Cause = "unattributed"
)

// precedenceOf ranks causes for overlap resolution; higher wins.
func precedenceOf(c Cause) int {
	switch c {
	case FaultStall:
		return 10
	case RetryBackoff:
		return 9
	case FsyncJournal:
		return 8
	case VisibilityWait:
		return 7
	case Metadata:
		return 6
	case PFSTransfer:
		return 5
	case StageCopy:
		return 4
	case QueueWait:
		return 3
	case CollectiveWait:
		return 2
	case Compute:
		return 1
	default:
		return 0
	}
}

// collPrefix marks collective-rendezvous edges of the root MPI world;
// analysis groups them by detail to find the global synchronization
// points that bound critical-path segments.
const collPrefix = "coll:"

// Edge is one typed blocking interval on one process's timeline.
type Edge struct {
	// Track is the process name (e.g. "rank3", "stream:asyncvol:rank3").
	Track string
	// Cause is the blame category.
	Cause Cause
	// Subsystem names the recording layer ("mpi", "pfs", "asyncvol", …).
	Subsystem string
	// Detail refines the cause ("drain", "pfs:gpfs:write", "coll:0000001").
	Detail string
	// Start and End bound the interval in virtual time, half-open.
	Start, End time.Duration
	// Bytes is the payload size for data-movement edges; 0 otherwise.
	Bytes int64
}

// mark is an epoch/phase boundary instant recorded by core.
type mark struct {
	epoch int // -1 for the init boundary
	at    time.Duration
}

// WindowMark is a named interval of interest — a fault-injection
// window — whose blame breakdown the profile reports separately.
type WindowMark struct {
	Name       string
	Start, End time.Duration // End 0 means "until end of run"
}

// procWaits aggregates one process's share of the vclock-level wait-for
// graph: a row per (kind, label) it has blocked in, a handful at most.
type procWaits struct {
	name string
	rows []waitRow
}

type waitRow struct {
	kind, label string
	count       int64
	total       time.Duration
}

// Recorder collects causal edges for one run, on the goroutine that
// runs its clock. A nil *Recorder no-ops everywhere, so instrumented
// layers call unconditionally.
type Recorder struct {
	edges    []Edge
	marks    []mark
	windows  []WindowMark
	waits    []procWaits // indexed by the clock's process id
	makespan time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one edge. Zero-length edges are dropped unless they
// carry a collective-rendezvous detail (the last-arriving rank's
// zero-wait entry is what identifies the segment's critical rank).
func (r *Recorder) Record(e Edge) {
	if r == nil {
		return
	}
	if e.End <= e.Start && !strings.HasPrefix(e.Detail, collPrefix) {
		return
	}
	r.edges = append(r.edges, e)
}

// ObserveWait implements vclock.WaitObserver (structurally): every
// Proc.Sleep and Event.Wait reports here. The per-(proc, kind, label)
// aggregation forms the run's wait-for graph. It runs on every blocking
// operation, so it hashes nothing: id, the clock's dense process number,
// indexes the process's rows, and kind and label are the same few
// constant strings every time, which compare by pointer.
func (r *Recorder) ObserveWait(id int, proc, kind, label string, start, end time.Duration) {
	if r == nil {
		return
	}
	if id >= len(r.waits) {
		r.waits = append(r.waits, make([]procWaits, id+1-len(r.waits))...)
	}
	pw := &r.waits[id]
	pw.name = proc
	for i := range pw.rows {
		if row := &pw.rows[i]; row.label == label && row.kind == kind {
			row.count++
			row.total += end - start
			return
		}
	}
	pw.rows = append(pw.rows, waitRow{kind: kind, label: label, count: 1, total: end - start})
}

// MarkInit records the end of the init phase (rank 0, after the init
// barrier).
func (r *Recorder) MarkInit(at time.Duration) {
	if r == nil {
		return
	}
	r.marks = append(r.marks, mark{epoch: -1, at: at})
}

// MarkEpoch records the commit instant of one epoch (rank 0, after the
// epoch's record is committed).
func (r *Recorder) MarkEpoch(epoch int, at time.Duration) {
	if r == nil {
		return
	}
	r.marks = append(r.marks, mark{epoch: epoch, at: at})
}

// MarkWindow registers a named interval (e.g. a fault window) for
// separate blame reporting.
func (r *Recorder) MarkWindow(name string, start, end time.Duration) {
	if r == nil {
		return
	}
	r.windows = append(r.windows, WindowMark{Name: name, Start: start, End: end})
}

// SetMakespan records the run's final virtual instant. Without it the
// profile falls back to the latest edge end.
func (r *Recorder) SetMakespan(d time.Duration) {
	if r == nil {
		return
	}
	if d > r.makespan {
		r.makespan = d
	}
}

// Edges returns a canonically-sorted copy of the recorded edges.
func (r *Recorder) Edges() []Edge {
	if r == nil {
		return nil
	}
	out := append([]Edge(nil), r.edges...)
	sortEdges(out)
	return out
}

// sortEdges imposes the canonical edge order: (Start, End, Track,
// Cause, Subsystem, Detail, Bytes): a pure function of the edge
// multiset, so a profile does not change when layers record in another
// order within an instant.
func sortEdges(edges []Edge) { sort.Sort(edgeOrder(edges)) }

// edgeOrder sorts 88-byte edges in place through a concrete type: no
// reflected swapper (sort.Slice) and no pair of value copies per
// comparison (slices.SortFunc) — 0.8× and 0.55× their time on a
// recorder's nearly time-ordered edges.
type edgeOrder []Edge

func (e edgeOrder) Len() int      { return len(e) }
func (e edgeOrder) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e edgeOrder) Less(i, j int) bool {
	a, b := &e[i], &e[j]
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Track != b.Track {
		return trackLess(a.Track, b.Track)
	}
	if a.Cause != b.Cause {
		return a.Cause < b.Cause
	}
	if a.Subsystem != b.Subsystem {
		return a.Subsystem < b.Subsystem
	}
	if a.Detail != b.Detail {
		return a.Detail < b.Detail
	}
	return a.Bytes < b.Bytes
}

// trackLess orders track names with numeric-suffix awareness, so
// "rank2" sorts before "rank10".
func trackLess(a, b string) bool {
	if len(a) == len(b) {
		// Equal prefixes then leave digit runs of equal length, which
		// order numerically as they do bytewise.
		return a < b
	}
	pa, na, oka := splitNumericSuffix(a)
	pb, nb, okb := splitNumericSuffix(b)
	if oka && okb && pa == pb {
		return na < nb
	}
	return a < b
}

// splitNumericSuffix splits a trailing decimal run off s.
func splitNumericSuffix(s string) (prefix string, n int64, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	for _, c := range s[i:] {
		n = n*10 + int64(c-'0')
	}
	return s[:i], n, true
}
