// Consistency-model spectrum for the PFS layer. The simulator's data
// plane is a single address space and therefore always coherent; what
// differs between real parallel file systems is the *cost* a rank pays
// to make its writes visible to other ranks, and the point in time at
// which the model guarantees that visibility. Consistency makes that
// pluggable (Wang, Mohror & Snir, "Formal Definitions and Performance
// Comparison of Consistency Models for Parallel File Systems"):
//
//   - posix: strong consistency. Every write acquires a range lock and
//     publishes its bytes through the coherence protocol before it
//     completes — visibility is immediate, and the write path pays for
//     it (a fixed lock round-trip plus a byte-proportional publish).
//   - session: open-to-close consistency. Writes pay only a lease
//     validation; a rank's writes become visible to others at its file
//     close, which pays one publish barrier.
//   - mpiio: MPI-IO sync-barrier-sync. Writes pay a cheap sync-set
//     tracking charge; visibility is established at the rank's explicit
//     sync (the connector drain), which pays one publish barrier. A
//     reader is guaranteed to observe the data only if its own sync
//     follows the writer's.
//   - commit: commit consistency (e.g. BatchFS/DeltaFS-style). Writes
//     are free; visibility and durability are promised only at a global
//     commit (the checkpoint), which pays one publish barrier on the
//     committing rank.
//
// Every charge is recorded as a critpath.VisibilityWait edge, so the
// profiler blames visibility cost the same way it blames transfers or
// fsyncs, and the per-model cost asymmetry reproduces the paper's
// weaker-models-buy-bandwidth result. When Check is set, a
// ConsistencyChecker (checker.go) records every write/read/sync/close/
// commit on the virtual clock and asserts the model's formal visibility
// and durability guarantees after the run.
package pfs

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/ioreq"
	"asyncio/internal/metrics"
	"asyncio/internal/vclock"
)

// Model names one consistency model of the spectrum.
type Model string

// The spectrum, strongest to weakest.
const (
	ModelPOSIX   Model = "posix"
	ModelSession Model = "session"
	ModelMPIIO   Model = "mpiio"
	ModelCommit  Model = "commit"
)

// valid reports whether m is a known model.
func (m Model) valid() bool {
	switch m {
	case ModelPOSIX, ModelSession, ModelMPIIO, ModelCommit:
		return true
	}
	return false
}

// ConsistencySpec is the parsed form of a -consistency flag value:
// "<model>[;key=value]...". Models: posix, session, mpiio, commit.
// Keys: check=0|1 (enable the visibility checker), lock=<dur> (posix
// per-write lock round-trip), lease=<dur> (session per-write lease
// validation), track=<dur> (mpiio per-write sync-set tracking),
// publish=<dur> (per-publish barrier latency), bw=<bytes/s> (posix
// byte-proportional publish bandwidth; 0 disables).
type ConsistencySpec struct {
	Model Model
	// Check attaches a ConsistencyChecker to the run.
	Check bool
	// Lock is the posix per-write range-lock round-trip.
	Lock time.Duration
	// Lease is the session per-write lease validation.
	Lease time.Duration
	// Track is the mpiio per-write sync-set tracking charge.
	Track time.Duration
	// Publish is the per-publish barrier latency (charged per write for
	// posix; at close/sync/commit for the weaker models).
	Publish time.Duration
	// PublishBW, when positive, adds bytes/PublishBW to every posix
	// write (the coherence protocol moves the data eagerly).
	PublishBW float64
}

// defaultSpec returns the model's stock charges. Strong coherence is
// expensive per write; each step down the spectrum moves cost off the
// write path and onto an ever-later publish point.
func defaultSpec(m Model) ConsistencySpec {
	sp := ConsistencySpec{Model: m}
	switch m {
	case ModelPOSIX:
		sp.Lock = 400 * time.Microsecond
		sp.Publish = 200 * time.Microsecond
		sp.PublishBW = 1.5e9
	case ModelSession:
		sp.Lease = 100 * time.Microsecond
		sp.Publish = 200 * time.Microsecond
	case ModelMPIIO:
		sp.Track = 25 * time.Microsecond
		sp.Publish = 200 * time.Microsecond
	case ModelCommit:
		sp.Publish = 50 * time.Microsecond
	}
	return sp
}

// ParseConsistency parses a spec string. The empty string is an error;
// callers treat "" as "no consistency model" before parsing.
func ParseConsistency(s string) (*ConsistencySpec, error) {
	parts := strings.Split(s, ";")
	m := Model(strings.TrimSpace(parts[0]))
	if !m.valid() {
		return nil, fmt.Errorf("consistency: unknown model %q (want posix, session, mpiio, or commit)", string(m))
	}
	sp := defaultSpec(m)
	for _, part := range parts[1:] {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("consistency: %q is not key=value", part)
		}
		switch key {
		case "check":
			switch val {
			case "0":
				sp.Check = false
			case "1":
				sp.Check = true
			default:
				return nil, fmt.Errorf("consistency: check=%q (want 0 or 1)", val)
			}
		case "lock":
			d, err := parseConsDur(key, val)
			if err != nil {
				return nil, err
			}
			sp.Lock = d
		case "lease":
			d, err := parseConsDur(key, val)
			if err != nil {
				return nil, err
			}
			sp.Lease = d
		case "track":
			d, err := parseConsDur(key, val)
			if err != nil {
				return nil, err
			}
			sp.Track = d
		case "publish":
			d, err := parseConsDur(key, val)
			if err != nil {
				return nil, err
			}
			sp.Publish = d
		case "bw":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("consistency: bw=%q is not a non-negative bytes/s value", val)
			}
			sp.PublishBW = f
		default:
			return nil, fmt.Errorf("consistency: unknown key %q", key)
		}
	}
	return &sp, nil
}

func parseConsDur(key, val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("consistency: %s=%q is not a non-negative duration", key, val)
	}
	return d, nil
}

// String renders the spec canonically: the model, then only the fields
// that differ from the model's defaults, in fixed key order.
// ParseConsistency(sp.String()) reproduces sp exactly.
func (sp *ConsistencySpec) String() string {
	def := defaultSpec(sp.Model)
	parts := []string{string(sp.Model)}
	if sp.Check {
		parts = append(parts, "check=1")
	}
	if sp.Lock != def.Lock {
		parts = append(parts, "lock="+sp.Lock.String())
	}
	if sp.Lease != def.Lease {
		parts = append(parts, "lease="+sp.Lease.String())
	}
	if sp.Track != def.Track {
		parts = append(parts, "track="+sp.Track.String())
	}
	if sp.Publish != def.Publish {
		parts = append(parts, "publish="+sp.Publish.String())
	}
	if sp.PublishBW != def.PublishBW {
		parts = append(parts, "bw="+strconv.FormatFloat(sp.PublishBW, 'g', -1, 64))
	}
	return strings.Join(parts, ";")
}

// Consistency applies one spec to one run: it charges visibility costs
// on the virtual clock, records them as critpath.VisibilityWait edges,
// and (when the spec asks) feeds a ConsistencyChecker. A Consistency
// serves exactly one run, like a fault injector. All exported methods
// tolerate a nil receiver, so callers thread it without guards.
type Consistency struct {
	spec    ConsistencySpec
	checker *ConsistencyChecker
	crit    *critpath.Recorder

	mWaitNs    *metrics.Counter
	mWrites    *metrics.Counter
	mPublishes *metrics.Counter

	unpublished map[int]int // rank → writes not yet published
}

// NewConsistency builds the runtime for one run; a nil spec yields a
// nil Consistency (the knob is off — no stages, no charges, no events).
func NewConsistency(sp *ConsistencySpec) *Consistency {
	if sp == nil {
		return nil
	}
	c := &Consistency{spec: *sp, unpublished: make(map[int]int)}
	if sp.Check {
		c.checker = newChecker(sp.Model)
	}
	return c
}

// Checker returns the visibility oracle, or nil when the spec did not
// request checking (or c is nil).
func (c *Consistency) Checker() *ConsistencyChecker {
	if c == nil {
		return nil
	}
	return c.checker
}

// SetCrit attaches the critical-path recorder. Call once, before the
// run starts.
func (c *Consistency) SetCrit(rec *critpath.Recorder) {
	if c == nil {
		return
	}
	c.crit = rec
}

// Instrument registers the model's counters on m under
// "consistency.<model>.*". Call once, before the run starts.
func (c *Consistency) Instrument(m *metrics.Registry) {
	if c == nil || m == nil {
		return
	}
	pre := "consistency." + string(c.spec.Model) + "."
	c.mWaitNs = m.Counter(pre + "visibility_wait_ns")
	c.mWrites = m.Counter(pre + "writes_tracked")
	c.mPublishes = m.Counter(pre + "publishes")
}

// charge sleeps p for d, counts it, and records a VisibilityWait edge.
func (c *Consistency) charge(p *vclock.Proc, d time.Duration, detail string, bytes int64) {
	if p == nil || d <= 0 {
		return
	}
	start := p.Now()
	p.Sleep(d)
	c.mWaitNs.Add(int64(d))
	c.crit.Record(critpath.Edge{
		Track: p.Name(), Cause: critpath.VisibilityWait, Subsystem: "consistency",
		Detail: detail, Start: start, End: p.Now(), Bytes: bytes,
	})
}

// Stage returns the per-rank pipeline stage that observes and charges
// every data request the rank issues. Returns nil on a nil receiver.
func (c *Consistency) Stage(rank int) ioreq.Stage {
	if c == nil {
		return nil
	}
	return &consistencyStage{c: c, rank: rank}
}

// recordWrite applies the model's per-write cost and feeds the checker.
// Called after the request executed successfully, on the executing
// process (the rank itself on the synchronous path, the background
// stream on the asynchronous one — which is exactly why async hides
// visibility cost from the critical path).
func (c *Consistency) recordWrite(rank int, req *ioreq.Request, start time.Duration) {
	p := req.Proc
	nbytes := req.Bytes()
	c.mWrites.Add(1)
	switch c.spec.Model {
	case ModelPOSIX:
		cost := c.spec.Lock + c.spec.Publish
		if c.spec.PublishBW > 0 && nbytes > 0 {
			cost += time.Duration(float64(nbytes) / c.spec.PublishBW * float64(time.Second))
		}
		c.charge(p, cost, "posix:lock+publish", nbytes)
		c.mPublishes.Add(1)
	case ModelSession:
		c.charge(p, c.spec.Lease, "session:lease", nbytes)
		c.addUnpublished(rank)
	case ModelMPIIO:
		c.charge(p, c.spec.Track, "mpiio:track", nbytes)
		c.addUnpublished(rank)
	case ModelCommit:
		c.addUnpublished(rank)
	}
	c.checker.recordOp(evWrite, rank, req, start, procNow(p))
}

// recordRead feeds the checker; reads never pay a visibility charge
// (the cost asymmetry between models lives entirely on the write and
// publish paths).
func (c *Consistency) recordRead(rank int, req *ioreq.Request, start time.Duration) {
	c.checker.recordOp(evRead, rank, req, start, procNow(req.Proc))
}

func (c *Consistency) addUnpublished(rank int) { c.unpublished[rank]++ }

// takeUnpublished clears and returns the rank's unpublished-write count.
func (c *Consistency) takeUnpublished(rank int) int {
	n := c.unpublished[rank]
	delete(c.unpublished, rank)
	return n
}

// RankClose marks the rank's file close. Under session consistency a
// close with unpublished writes pays one publish barrier and makes the
// rank's writes visible; repeated closes are idempotent (only the first
// one after new writes charges).
func (c *Consistency) RankClose(p *vclock.Proc, rank int) {
	if c == nil {
		return
	}
	if c.spec.Model == ModelSession && c.takeUnpublished(rank) > 0 {
		c.charge(p, c.spec.Publish, "session:close-publish", 0)
		c.mPublishes.Add(1)
	}
	c.checker.recordMark(evClose, rank, procNow(p), 0)
}

// RankSync marks the rank's explicit synchronization point (the
// connector drain — MPI-IO's "sync" in sync-barrier-sync). Under mpiio
// a sync with unpublished writes pays one publish barrier; idempotent
// like RankClose.
func (c *Consistency) RankSync(p *vclock.Proc, rank int) {
	if c == nil {
		return
	}
	if c.spec.Model == ModelMPIIO && c.takeUnpublished(rank) > 0 {
		c.charge(p, c.spec.Publish, "mpiio:sync-publish", 0)
		c.mPublishes.Add(1)
	}
	c.checker.recordMark(evSync, rank, procNow(p), 0)
}

// Commit marks a global durable commit (the checkpoint, after its
// drain/barrier/fsync sequence completed) at epoch. Under commit
// consistency the committing rank pays one publish barrier when any
// rank has unpublished writes; every model records the commit instant,
// because it is the durability promise the checker verifies against
// the post-crash image.
func (c *Consistency) Commit(p *vclock.Proc, epoch int) {
	if c == nil {
		return
	}
	if c.spec.Model == ModelCommit {
		n := len(c.unpublished)
		clear(c.unpublished)
		if n > 0 {
			c.charge(p, c.spec.Publish, "commit:publish", 0)
			c.mPublishes.Add(1)
		}
	}
	c.checker.recordMark(evCommit, 0, procNow(p), epoch)
}

// VisibilityWaitNs returns the total charged visibility wait, for
// assertions and fingerprints. Zero when uninstrumented or nil.
func (c *Consistency) VisibilityWaitNs() int64 {
	if c == nil || c.mWaitNs == nil {
		return 0
	}
	return c.mWaitNs.Value()
}

// consistencyStage adapts one rank's view of a Consistency to
// ioreq.Stage. It sits upstream of the retry stage so a request is
// recorded (and charged) exactly once, after the whole retry loop
// succeeded.
type consistencyStage struct {
	c    *Consistency
	rank int
}

// Name implements ioreq.Stage.
func (s *consistencyStage) Name() string { return "consistency" }

// Process implements ioreq.Stage: execute first, then observe.
func (s *consistencyStage) Process(req *ioreq.Request, next func(*ioreq.Request) error) error {
	start := procNow(req.Proc)
	if err := next(req); err != nil {
		return err
	}
	if req.Op.IsWrite() {
		s.c.recordWrite(s.rank, req, start)
	} else {
		s.c.recordRead(s.rank, req, start)
	}
	return nil
}

// Flush implements ioreq.Stage; the stage buffers nothing.
func (s *consistencyStage) Flush(p *vclock.Proc, next func(*ioreq.Request) error) error {
	return nil
}
