package faults

import (
	"errors"
	"fmt"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/ioreq"
	"asyncio/internal/metrics"
	"asyncio/internal/pfs"
	"asyncio/internal/vclock"
)

// Kind classifies an injected fault.
type Kind int

const (
	// KindTransient is a one-shot I/O error (the EIO a degraded OST
	// returns); retrying usually succeeds.
	KindTransient Kind = iota
	// KindOutage is a data op rejected while its target is down;
	// retrying succeeds only after the repair time.
	KindOutage
	// KindRetryExhausted wraps the last underlying fault once the retry
	// policy runs out of attempts or deadline.
	KindRetryExhausted
	// KindCrashRank is a single rank killed at a virtual time; its staged
	// asynchronous data is lost unless journaled and recovered.
	KindCrashRank
	// KindCrashNode is a whole node killed at a virtual time (every rank
	// placed on it dies).
	KindCrashNode
)

// String names the kind for error text.
func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindOutage:
		return "outage"
	case KindRetryExhausted:
		return "retry-exhausted"
	case KindCrashRank:
		return "crash-rank"
	case KindCrashNode:
		return "crash-node"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Error is the typed error every injected fault surfaces as. Callers
// unwrap with errors.As; Err carries the underlying fault for
// KindRetryExhausted.
type Error struct {
	Kind     Kind
	Target   string        // pfs target name; empty for non-target faults
	Op       string        // "write" or "read"
	At       time.Duration // virtual time of the (last) failure
	Attempts int           // attempts made, for KindRetryExhausted
	Err      error         // wrapped cause, for KindRetryExhausted
}

// Error implements error.
func (e *Error) Error() string {
	switch e.Kind {
	case KindRetryExhausted:
		return fmt.Sprintf("faults: %s after %d attempts at %s: %v", e.Kind, e.Attempts, e.At, e.Err)
	case KindCrashRank, KindCrashNode:
		return fmt.Sprintf("faults: %s %s at %s", e.Kind, e.Target, e.At)
	default:
		return fmt.Sprintf("faults: %s %s on %s at %s", e.Kind, e.Op, e.Target, e.At)
	}
}

// Unwrap exposes the cause chain.
func (e *Error) Unwrap() error { return e.Err }

// Metric names the injector registers; core watches RetryExhausted for
// its degradation decision.
const (
	MetricInjected       = "faults.injected_errors"
	MetricOutage         = "faults.outage_rejections"
	MetricRetries        = "faults.retries"
	MetricRetryExhausted = "faults.retry_exhausted"
	MetricMetaStalls     = "faults.meta_stalls"
	MetricBGStalls       = "faults.bg_stalls"
	MetricStagingFull    = "faults.staging_exhausted"
)

// Injector applies a Spec to a run. It implements pfs.FaultHook for the
// targets it is attached to and asyncvol's FaultModel for background
// streams. One injector serves one run: Attach installs hooks and
// schedules slowdown windows on the run's clock.
type Injector struct {
	spec *Spec
	ops  map[opKey]uint64 // per-(target, proc) op counter for seeded draws

	mInjected    *metrics.Counter
	mOutage      *metrics.Counter
	mRetries     *metrics.Counter
	mExhausted   *metrics.Counter
	mMetaStalls  *metrics.Counter
	mBGStalls    *metrics.Counter
	mStagingFull *metrics.Counter

	crit *critpath.Recorder
}

// SetCrit attaches the critical-path recorder: injected stalls record
// fault-stall edges, retry backoffs record retry-backoff edges (via
// RetryPolicy), and every scheduled fault window of the spec is marked
// on the profile so its blame breakdown is reported separately. Call
// once, before the run starts.
func (in *Injector) SetCrit(rec *critpath.Recorder) {
	in.crit = rec
	if rec == nil {
		return
	}
	for _, o := range in.spec.Outages {
		rec.MarkWindow("outage:"+o.Target, o.Start, o.Start+o.Dur)
	}
	for _, s := range in.spec.Slowdowns {
		rec.MarkWindow("slow:"+s.Target, s.Window.Start, s.Window.End)
	}
	for _, ms := range in.spec.MetaStalls {
		rec.MarkWindow("meta:"+ms.Target, ms.Window.Start, ms.Window.End)
	}
	for _, b := range in.spec.BGStalls {
		rec.MarkWindow("bgstall", b.Start, b.Start+b.Dur)
	}
}

type opKey struct {
	target, proc string
}

// New parses a spec string and builds its injector.
func New(spec string) (*Injector, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return FromSpec(sp), nil
}

// FromSpec builds an injector for a parsed spec.
func FromSpec(sp *Spec) *Injector {
	return &Injector{
		spec: sp,
		ops:  make(map[opKey]uint64),
	}
}

// Attach installs the injector on the given pfs targets, registers its
// instruments on m (nil skips), and schedules the spec's slowdown
// windows as virtual-clock timers. Call once, before the run starts.
func (in *Injector) Attach(clk *vclock.Clock, m *metrics.Registry, targets ...*pfs.Target) {
	if m != nil {
		in.mInjected = m.Counter(MetricInjected)
		in.mOutage = m.Counter(MetricOutage)
		in.mRetries = m.Counter(MetricRetries)
		in.mExhausted = m.Counter(MetricRetryExhausted)
		in.mMetaStalls = m.Counter(MetricMetaStalls)
		in.mBGStalls = m.Counter(MetricBGStalls)
		in.mStagingFull = m.Counter(MetricStagingFull)
	}
	for _, t := range targets {
		if t == nil {
			continue
		}
		t.SetFaults(in)
		in.scheduleSlowdowns(clk, t)
	}
}

// scheduleSlowdowns sets the target's fault factor now and at every
// window boundary. Factors of overlapping windows multiply. Timer
// callbacks run while virtual time holds still, so a boundary at t
// applies exactly at t; pending timers past the end of the run are
// discarded when the clock's processes finish.
func (in *Injector) scheduleSlowdowns(clk *vclock.Clock, t *pfs.Target) {
	var boundaries []time.Duration
	relevant := false
	for _, s := range in.spec.Slowdowns {
		if !matches(s.Target, t.Name()) {
			continue
		}
		relevant = true
		boundaries = append(boundaries, s.Window.Start)
		if s.Window.End > 0 {
			boundaries = append(boundaries, s.Window.End)
		}
	}
	if !relevant {
		return
	}
	t.SetFaultFactor(in.slowFactorAt(t.Name(), 0))
	seen := map[time.Duration]bool{0: true}
	for _, b := range boundaries {
		if seen[b] {
			continue
		}
		seen[b] = true
		clk.AfterFunc(b, func(now time.Duration) {
			t.SetFaultFactor(in.slowFactorAt(t.Name(), now))
		})
	}
}

// slowFactorAt is the product of all slowdown factors active on target
// at time now, clamped into (0,1].
func (in *Injector) slowFactorAt(target string, now time.Duration) float64 {
	f := 1.0
	for _, s := range in.spec.Slowdowns {
		if matches(s.Target, target) && s.Window.contains(now) {
			f *= s.Factor
		}
	}
	if f <= 0 {
		f = 1e-9
	}
	return f
}

// BeforeData implements pfs.FaultHook: outages reject, then the seeded
// per-(target, process) draw decides transient errors. The draw counter
// advances deterministically because each process issues its ops
// sequentially.
func (in *Injector) BeforeData(p *vclock.Proc, target string, write bool, nbytes int64) error {
	now := p.Now()
	for _, o := range in.spec.Outages {
		if matches(o.Target, target) && now >= o.Start && now < o.Start+o.Dur {
			in.mOutage.Add(1)
			return &Error{Kind: KindOutage, Target: target, Op: opName(write), At: now}
		}
	}
	for _, er := range in.spec.ErrRates {
		if er.Rate > 0 && matches(er.Target, target) && er.Window.contains(now) {
			if in.draw(target, p.Name()) < er.Rate {
				in.mInjected.Add(1)
				return &Error{Kind: KindTransient, Target: target, Op: opName(write), At: now}
			}
		}
	}
	return nil
}

// BeforeMeta implements pfs.FaultHook: active metadata-stall windows
// sleep the acting process.
func (in *Injector) BeforeMeta(p *vclock.Proc, target string) {
	now := p.Now()
	var extra time.Duration
	for _, ms := range in.spec.MetaStalls {
		if matches(ms.Target, target) && ms.Window.contains(now) {
			extra += ms.Extra
		}
	}
	if extra > 0 {
		in.mMetaStalls.Add(1)
		start := p.Now()
		p.Sleep(extra)
		in.crit.Record(critpath.Edge{
			Track: p.Name(), Cause: critpath.FaultStall, Subsystem: "faults",
			Detail: "meta-stall", Start: start, End: p.Now(),
		})
	}
}

// BackgroundStall implements asyncvol's fault model: a background task
// starting inside a stall window sleeps until the window ends.
func (in *Injector) BackgroundStall(now time.Duration) time.Duration {
	var until time.Duration
	for _, b := range in.spec.BGStalls {
		if end := b.Start + b.Dur; now >= b.Start && now < end && end > until {
			until = end
		}
	}
	if until == 0 {
		return 0
	}
	in.mBGStalls.Add(1)
	return until - now
}

// StagingCapacity implements asyncvol's fault model: the staging-buffer
// byte budget per connector (0 = unbounded).
func (in *Injector) StagingCapacity() int64 { return in.spec.StageCap }

// StagingExhausted records one staging-capacity rejection (asyncvol
// calls it when a staging request falls back to a synchronous dispatch).
func (in *Injector) StagingExhausted() { in.mStagingFull.Add(1) }

// RetryPolicy returns the ioreq retry stage policy for this schedule:
// injected transients and outages are retryable; exhaustion wraps into
// a typed Error and bumps the exhaustion counter core watches.
func (in *Injector) RetryPolicy() ioreq.RetryPolicy {
	r := in.spec.Retry
	return ioreq.RetryPolicy{
		MaxAttempts: r.Attempts,
		Backoff:     r.Backoff,
		MaxBackoff:  r.MaxBackoff,
		Deadline:    r.Deadline,
		Crit:        in.crit,
		Retryable: func(err error) bool {
			var fe *Error
			return errors.As(err, &fe) && fe.Kind != KindRetryExhausted
		},
		OnRetry: func(req *ioreq.Request, attempt int, err error) {
			in.mRetries.Add(1)
		},
		Exhausted: func(req *ioreq.Request, attempts int, err error) error {
			in.mExhausted.Add(1)
			e := &Error{Kind: KindRetryExhausted, At: procNow(req.Proc), Attempts: attempts, Err: err}
			var fe *Error
			if errors.As(err, &fe) {
				e.Target, e.Op = fe.Target, fe.Op
			}
			return e
		},
	}
}

// RetryStage builds the retry middleware stage for this schedule.
func (in *Injector) RetryStage() *ioreq.RetryStage {
	return ioreq.NewRetry(in.RetryPolicy())
}

// Degrade returns the degradation policy of the schedule; core consumes
// plain values so the packages stay decoupled.
func (in *Injector) Degrade() DegradeSpec { return in.spec.Degrade }

// Crashes returns the schedule's crash events; core turns them into
// virtual-clock kill timers against the run's ranks.
func (in *Injector) Crashes() []Crash { return in.spec.Crashes }

// IsCrash reports whether err is (or wraps) an injected crash — the
// expected outcome of a crash-chaos run, as opposed to a genuine
// failure.
func IsCrash(err error) bool {
	var fe *Error
	if !errors.As(err, &fe) {
		return false
	}
	return fe.Kind == KindCrashRank || fe.Kind == KindCrashNode
}

// CrashError builds the typed error recorded for a crash event.
func (c Crash) CrashError() *Error {
	kind, label := KindCrashRank, "rank"
	if c.Node {
		kind, label = KindCrashNode, "node"
	}
	return &Error{Kind: kind, Target: fmt.Sprintf("%s%d", label, c.Index), At: c.At}
}

// draw returns a deterministic pseudo-uniform value in [0,1) for the
// next op of (target, proc). FNV-1a over the spec seed, the target, the
// process name, and a per-pair op counter — a pure function of the
// schedule and each process's own op sequence, never of how processes
// interleave or of the host process (maphash would not replay across
// processes).
func (in *Injector) draw(target, proc string) float64 {
	key := opKey{target: target, proc: proc}
	n := in.ops[key]
	in.ops[key] = n + 1
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(in.spec.Seed) >> (8 * i)))
	}
	for i := 0; i < len(target); i++ {
		mix(target[i])
	}
	mix(0)
	for i := 0; i < len(proc); i++ {
		mix(proc[i])
	}
	mix(0)
	for i := 0; i < 8; i++ {
		mix(byte(n >> (8 * i)))
	}
	// One xorshift-multiply finalizer: FNV alone is weak in the low bits.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}

// opName labels the direction of a data op.
func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// procNow returns p's virtual time, tolerating nil.
func procNow(p *vclock.Proc) time.Duration {
	if p == nil {
		return 0
	}
	return p.Now()
}

// Interface conformance (asyncvol's FaultModel is structural).
var _ pfs.FaultHook = (*Injector)(nil)
