// Package asyncvol implements the asynchronous VOL connector — the
// system under evaluation in the paper (Tang et al.'s vol-async,
// reproduced on the simulation substrate).
//
// One Connector is created per simulated MPI process and owns one
// background execution stream (vol-async spawns one Argobots background
// thread per process). Every data operation is constructed as an
// ioreq.Request and flows through two pipelines:
//
//   - the inline pipeline runs on the caller: the transactional staging
//     copy (the overhead of the paper's Eq. 2b) is a stage, terminating
//     at the op queue — each request becomes one background task;
//   - the background pipeline (validate → resolve → execute) runs on
//     the background stream and performs the real transfer, charging
//     the file's driver.
//
// Reads can be prefetched: a background task stages the selection, and a
// later matching Read costs only the staging-buffer copy. Completion is
// tracked with EventSets (the H5ES analog); File.Close flushes the
// inline pipeline and drains the stream's pending work first.
package asyncvol

import (
	"fmt"
	"strings"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
	"asyncio/internal/metrics"
	"asyncio/internal/taskengine"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// CopyModel charges the transactional overhead: the time to copy nbytes
// between two memory buffers on the acting process's node (DRAM-to-DRAM
// for CPU applications, GPU↔CPU for GPU applications — §III-B1).
type CopyModel interface {
	Copy(p *vclock.Proc, nbytes int64)
}

// CopyFunc adapts a function to CopyModel.
type CopyFunc func(p *vclock.Proc, nbytes int64)

// Copy implements CopyModel.
func (f CopyFunc) Copy(p *vclock.Proc, nbytes int64) { f(p, nbytes) }

// FaultModel perturbs the connector's asynchronous machinery; it is the
// asyncvol half of a fault injector (internal/faults implements it).
type FaultModel interface {
	// BackgroundStall returns the extra delay a background task picked
	// up at virtual time now must sleep before running (an Argobots
	// thread descheduled under memory pressure); 0 means none.
	BackgroundStall(now time.Duration) time.Duration
	// StagingCapacity bounds outstanding staged write bytes per
	// connector; a staging request that would exceed it degrades to a
	// synchronous in-place dispatch. 0 means unbounded.
	StagingCapacity() int64
	// StagingExhausted records one such degradation.
	StagingExhausted()
}

// Options configures a Connector.
type Options struct {
	// Copy charges the transactional overhead per staged operation. Nil
	// disables the charge — the "zero-copy async" ablation, physically
	// unrealizable but useful to isolate the overhead's contribution.
	Copy CopyModel
	// Materialize controls whether staging buffers are actually
	// allocated and copied. Correctness tests set it; full-scale
	// experiments disable it so 12k ranks don't allocate hundreds of
	// gigabytes. When disabled the connector retains the caller's
	// buffer, so callers must not mutate it before completion.
	Materialize bool
	// Metrics, when non-nil, records the connector's activity under
	// "asyncvol.*" (op-queue depth, staged bytes, drain waits) and
	// instruments both request pipelines. Instruments are
	// shared by every connector on the registry, so the series aggregate
	// across ranks.
	Metrics *metrics.Registry
	// Faults, when non-nil, injects background-stream stalls and
	// staging-buffer exhaustion (see FaultModel).
	Faults FaultModel
	// ExecStages are extra middleware stages (e.g. the fault-injection
	// retry stage) inserted into the background execution pipeline
	// between resolve and execute. Stages are shared across connectors
	// and must be stateless or concurrency-safe.
	ExecStages []ioreq.Stage
	// InlineStages are extra stages run on the caller BEFORE the staging
	// copy (e.g. the write-ahead journal stage from internal/recovery:
	// WAL semantics require the log append to precede everything else,
	// including the degraded synchronous dispatch path inside staging).
	// Stages are shared across connectors and must be concurrency-safe.
	InlineStages []ioreq.Stage
	// Crit, when non-nil, records the connector's blocking intervals —
	// drain waits, staging copies, prefetch waits, and injected
	// background stalls — as causal critical-path edges.
	Crit *critpath.Recorder
	// OnDrained, when non-nil, runs on the caller after every successful
	// Drain — the connector's sync point, where MPI-IO-style consistency
	// models publish the rank's completed writes.
	OnDrained func(p *vclock.Proc)
	// OnClose, when non-nil, runs on the caller after a successful file
	// Close (post-drain) — the session-consistency publish point.
	OnClose func(p *vclock.Proc)
}

// Connector is the asynchronous connector for one simulated process.
type Connector struct {
	stream *taskengine.Stream
	opts   Options

	// inline runs on the caller: staging → enqueue. exec runs the real
	// transfer; background tasks and synchronous read fallbacks both use
	// it.
	inline *ioreq.Pipeline
	exec   *ioreq.Pipeline

	last  *taskengine.Task
	cache map[cacheKey]*cacheEntry

	// Staged-byte accounting: bytes held by write-staging buffers from
	// submission until the background dispatch finishes (successfully or
	// not). Releases become visible to capacity checks only at a
	// strictly later virtual instant, so a check racing a same-instant
	// completion is deterministic (it sees the bytes as still held).
	// Prefetch staging buffers are not counted — they live until
	// consumed by a Read, which is the caller's business, not queue
	// pressure.
	staged      map[*ioreq.Request]int64
	released    []releaseRec
	outstanding int64 // sum over staged + not-yet-folded releases

	// Instruments (nil when Options.Metrics is nil; methods no-op).
	mQueueDepth        *metrics.Gauge
	mEnqueued          *metrics.Counter
	mStagedBytes       *metrics.Counter
	mStagedOutstanding *metrics.Gauge
	mDrains            *metrics.Counter
	mDrainWait         *metrics.Histogram
}

type releaseRec struct {
	at time.Duration
	n  int64
}

type cacheKey struct {
	uid any // hdf5.Dataset.UID of the underlying object
	sel string
}

type cacheEntry struct {
	task *taskengine.Task
	buf  []byte // nil when not materializing
}

// New creates a connector with its own background stream on eng.
func New(eng *taskengine.Engine, name string, opts Options) *Connector {
	c := &Connector{
		opts:   opts,
		cache:  make(map[cacheKey]*cacheEntry),
		staged: make(map[*ioreq.Request]int64),
	}
	if m := opts.Metrics; m != nil {
		c.mQueueDepth = m.Gauge("asyncvol.queue_depth")
		c.mEnqueued = m.Counter("asyncvol.ops_enqueued")
		c.mStagedBytes = m.Counter("asyncvol.staged_bytes")
		c.mStagedOutstanding = m.Gauge("asyncvol.staged_outstanding_bytes")
		c.mDrains = m.Counter("asyncvol.drains")
		c.mDrainWait = m.Histogram("asyncvol.drain_wait_seconds")
		// Nothing stalls a submission since the op-queue bound went; the
		// two series stay registered, at zero, because every metrics CSV
		// and run bundle lists them.
		m.Counter("asyncvol.backpressure_stalls")
		m.Histogram("asyncvol.backpressure_wait_seconds")
	}
	c.stream = eng.NewStream("asyncvol:" + name)
	stages := append(append([]ioreq.Stage(nil), opts.InlineStages...), stagingStage{c: c})
	c.inline = ioreq.NewCustom(c.enqueue, stages...).WithMetrics(opts.Metrics)
	c.exec = ioreq.New(opts.ExecStages...).WithMetrics(opts.Metrics)
	return c
}

// Shutdown stops the background stream after draining queued work. The
// connector is unusable afterwards.
func (c *Connector) Shutdown() { c.stream.Shutdown() }

// Kill crashes the connector: the background stream's process dies at
// the current virtual instant, queued and in-flight operations complete
// with reason, and later submissions fail — the data-loss window that
// crash-consistency experiments measure.
func (c *Connector) Kill(reason error) { c.stream.Kill(reason) }

// Drain flushes the inline pipeline, then blocks p until every operation
// pushed so far has completed.
func (c *Connector) Drain(p *vclock.Proc) error {
	start := procNow(p)
	if err := c.inline.Flush(p); err != nil {
		return err
	}
	last := c.last
	if last == nil {
		if f := c.opts.OnDrained; f != nil {
			f(p)
		}
		return nil
	}
	waitStart := procNow(p)
	err := last.Wait(p)
	c.mDrains.Add(1)
	c.mDrainWait.Observe((procNow(p) - start).Seconds())
	c.opts.Crit.Record(critpath.Edge{
		Track: procName(p), Cause: critpath.QueueWait, Subsystem: "asyncvol",
		Detail: "drain", Start: waitStart, End: procNow(p),
	})
	if err == nil {
		if f := c.opts.OnDrained; f != nil {
			f(p)
		}
	}
	return err
}

// stagingStage is the transactional double-buffer copy as a pipeline
// stage: it snapshots the caller's buffer (when materializing) and
// charges the copy model on the calling process, then passes the
// request on. This is the only stage that runs before the request
// leaves the caller, so its charge is the entire blocking cost of an
// asynchronous write.
type stagingStage struct {
	c *Connector
}

func (stagingStage) Name() string { return "stage-copy" }

func (s stagingStage) Process(req *ioreq.Request, next func(*ioreq.Request) error) error {
	c := s.c
	n := req.Bytes()
	if fm := c.opts.Faults; fm != nil && n > 0 {
		if budget := fm.StagingCapacity(); budget > 0 && c.stagedOutstandingAt(procNow(req.Proc))+n > budget {
			// Staging buffers are exhausted: degrade this op to a
			// synchronous in-place dispatch on the caller — no staging
			// copy, no background task, completion before return (so
			// event sets have nothing to track).
			fm.StagingExhausted()
			req.Span.EventOn("asyncvol:staging-exhausted", n, procNow(req.Proc), procName(req.Proc))
			return c.exec.Do(req)
		}
	}
	if req.Buf != nil && c.opts.Materialize {
		req.Buf = append([]byte(nil), req.Buf...)
	}
	if c.opts.Copy != nil {
		copyStart := procNow(req.Proc)
		c.opts.Copy.Copy(req.Proc, n)
		c.opts.Crit.Record(critpath.Edge{
			Track: procName(req.Proc), Cause: critpath.StageCopy, Subsystem: "asyncvol",
			Detail: "stage-copy", Start: copyStart, End: procNow(req.Proc), Bytes: n,
		})
	}
	c.mStagedBytes.Add(n)
	c.recordStaged(req, n)
	req.Span.EventOn("asyncvol:stage", n, procNow(req.Proc), procName(req.Proc))
	return next(req)
}

func (stagingStage) Flush(*vclock.Proc, func(*ioreq.Request) error) error { return nil }

// recordStaged notes n staged bytes held by req.
func (c *Connector) recordStaged(req *ioreq.Request, n int64) {
	if n <= 0 {
		return
	}
	c.staged[req] = n
	c.outstanding += n
	c.mStagedOutstanding.Add(float64(n))
}

// releaseStaged frees the staging bytes of req at virtual time at,
// whether the dispatch succeeded or failed — a dropped op must not leak
// its buffer accounting. Idempotent per request. Capacity checks observe
// the release only strictly after at (see stagedOutstandingAt).
func (c *Connector) releaseStaged(at time.Duration, req *ioreq.Request) {
	if freed, ok := c.staged[req]; ok {
		delete(c.staged, req)
		c.released = append(c.released, releaseRec{at: at, n: freed})
		c.mStagedOutstanding.Add(-float64(freed))
	}
}

// stagedOutstandingAt folds releases that happened strictly before now
// and returns the staged bytes a capacity check at now observes. The
// strict inequality makes the check independent of whether a
// same-instant background completion has already run: either way the
// bytes still count.
func (c *Connector) stagedOutstandingAt(now time.Duration) int64 {
	kept := c.released[:0]
	for _, r := range c.released {
		if r.at < now {
			c.outstanding -= r.n
		} else {
			kept = append(kept, r)
		}
	}
	c.released = kept
	return c.outstanding
}

// bgOp is one queued background operation and the only per-operation
// object the connector allocates for it: the task runs its run method.
// It is a deferred metadata charge when raw is set, otherwise a data
// request executed from r — the stream's own copy, because the submitting
// rank can be runnable at the same virtual instant and must never observe
// the task's mutations. req, when set, is the submitted original, which
// keys the staged-bytes accounting.
type bgOp struct {
	c    *Connector
	r    ioreq.Request
	req  *ioreq.Request
	raw  *hdf5.File
	meta int // metadata round trips to charge on raw
}

// run executes the operation on the background stream's process, which
// is charged for it: the overlap with application compute the paper
// measures.
func (o *bgOp) run(p *vclock.Proc) error {
	c := o.c
	if fm := c.opts.Faults; fm != nil {
		if d := fm.BackgroundStall(p.Now()); d > 0 {
			stallStart := p.Now()
			p.Sleep(d)
			c.opts.Crit.Record(critpath.Edge{
				Track: p.Name(), Cause: critpath.FaultStall, Subsystem: "asyncvol",
				Detail: "bg-stall", Start: stallStart, End: p.Now(),
			})
		}
	}
	var err error
	if o.raw != nil {
		o.raw.ChargeMetaOps(&hdf5.TransferProps{Proc: p}, o.meta)
	} else {
		o.r.Proc = p
		err = c.exec.Do(&o.r)
		if o.req != nil {
			c.releaseStaged(p.Now(), o.req)
		}
	}
	c.mQueueDepth.Add(-1)
	return err
}

// enqueue is the inline pipeline's terminal: one request becomes one
// background task running the exec pipeline, added to the event set the
// request carries in Tag.
func (c *Connector) enqueue(req *ioreq.Request) error {
	es, err := eventSetOf(req.Tag)
	if err != nil {
		// The op dies here; its staging bytes must not stay accounted.
		c.releaseStaged(procNow(req.Proc), req)
		return err
	}
	t := c.push(taskName(req.Op), &bgOp{r: *req, req: req})
	if es != nil {
		es.add(t)
	}
	return nil
}

// taskName labels background tasks after the HDF5 call they execute.
func taskName(op ioreq.Op) string {
	switch op {
	case ioreq.OpWrite:
		return "H5Dwrite:async"
	case ioreq.OpWriteNull:
		return "H5Dwrite:async-discard"
	case ioreq.OpRead:
		return "H5Dread:async"
	default:
		return "H5Dread:async-discard"
	}
}

// eventSetOf checks that a caller-supplied event set belongs to this
// connector type. nil (no tracking) is allowed. A tag of the wrong
// concrete type is a caller error reported as such — a connector mix-up
// is recoverable (use the right connector's set), so it is not a panic.
func eventSetOf(set any) (*EventSet, error) {
	if set == nil {
		return nil, nil
	}
	es, ok := set.(*EventSet)
	if !ok {
		return nil, fmt.Errorf("asyncvol: event set %T is not *asyncvol.EventSet", set)
	}
	return es, nil
}

// setTag converts a vol.EventSet to a request tag, keeping nil
// interfaces as untagged.
func setTag(set vol.EventSet) any {
	if set == nil {
		return nil
	}
	return set
}

// procNow returns p's virtual time, tolerating nil.
func procNow(p *vclock.Proc) time.Duration {
	if p == nil {
		return 0
	}
	return p.Now()
}

// procName returns p's process name, tolerating nil.
func procName(p *vclock.Proc) string {
	if p == nil {
		return ""
	}
	return p.Name()
}

// push enqueues o as a background task and records it as the newest.
func (c *Connector) push(name string, o *bgOp) *taskengine.Task {
	// Queue depth counts submit → complete, so the series shows how much
	// work is riding the background stream at any virtual instant; the
	// decrement runs on the stream at completion time.
	c.mEnqueued.Add(1)
	c.mQueueDepth.Add(1)
	o.c = c
	c.last = c.stream.Push(name, nil, o.run)
	return c.last
}

// StagedOutstanding returns the staged write bytes currently held by
// in-flight operations (completed releases folded immediately; the
// strict-visibility rule only applies to capacity checks).
func (c *Connector) StagedOutstanding() int64 {
	n := c.outstanding
	for _, r := range c.released {
		n -= r.n
	}
	return n
}

// Create implements vol.Connector.
func (c *Connector) Create(pr vol.Props, store hdf5.Store, opts ...hdf5.FileOption) (vol.File, error) {
	f, err := hdf5.Create(store, opts...)
	if err != nil {
		return nil, err
	}
	return &asyncFile{c: c, f: f, native: vol.Native{}.Wrap(f)}, nil
}

// Wrap implements vol.Connector.
func (c *Connector) Wrap(f *hdf5.File) vol.File {
	return &asyncFile{c: c, f: f, native: vol.Native{}.Wrap(f)}
}

type asyncFile struct {
	c      *Connector
	f      *hdf5.File
	native vol.File
}

func (af *asyncFile) Root() vol.Group {
	return &asyncGroup{c: af.c, raw: af.f, g: af.native.Root()}
}

// Flush drains pending asynchronous work, then flushes metadata.
func (af *asyncFile) Flush(pr vol.Props) error {
	if err := af.c.Drain(pr.Proc); err != nil {
		return err
	}
	return af.native.Flush(pr)
}

// Close drains pending asynchronous work for this process, then closes
// the underlying file (idempotent, so each sharing rank may call it).
func (af *asyncFile) Close(pr vol.Props) error {
	if err := af.c.Drain(pr.Proc); err != nil {
		return err
	}
	if err := af.native.Close(pr); err != nil {
		return err
	}
	if f := af.c.opts.OnClose; f != nil {
		f(pr.Proc)
	}
	return nil
}

// asyncGroup executes metadata operations immediately (callers need the
// resulting handles) but asynchronously with respect to their cost:
// vol-async enqueues metadata on the background thread, so the calling
// process does not block on metadata round trips. The structural change
// happens uncharged on the caller; the latency is charged to the
// background stream.
type asyncGroup struct {
	c   *Connector
	raw *hdf5.File
	g   vol.Group
}

// deferMeta performs the op's structural work uncharged and pushes its
// n-round-trip cost onto the background stream.
func (ag *asyncGroup) deferMeta(pr vol.Props, n int) error {
	es, err := eventSetOf(setTag(pr.Set))
	if err != nil {
		return err
	}
	t := ag.c.push("H5meta:async", &bgOp{raw: ag.raw, meta: n})
	if es != nil {
		es.add(t)
	}
	return nil
}

// uncharged strips the acting process so the native call costs nothing.
func uncharged() vol.Props { return vol.Props{} }

// pathOps counts metadata round trips for a path walk, without
// allocating the component slice (it runs on every queued operation).
func pathOps(path string) int {
	n := 0
	for rest := path; rest != ""; {
		var part string
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, ""
		}
		if part != "" {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

func (ag *asyncGroup) CreateGroup(pr vol.Props, name string) (vol.Group, error) {
	g, err := ag.g.CreateGroup(uncharged(), name)
	if err != nil {
		return nil, err
	}
	if err := ag.deferMeta(pr, 1); err != nil {
		return nil, err
	}
	return &asyncGroup{c: ag.c, raw: ag.raw, g: g}, nil
}

func (ag *asyncGroup) OpenGroup(pr vol.Props, path string) (vol.Group, error) {
	g, err := ag.g.OpenGroup(uncharged(), path)
	if err != nil {
		return nil, err
	}
	if err := ag.deferMeta(pr, pathOps(path)); err != nil {
		return nil, err
	}
	return &asyncGroup{c: ag.c, raw: ag.raw, g: g}, nil
}

func (ag *asyncGroup) CreateDataset(pr vol.Props, name string, dtype hdf5.Datatype, space *hdf5.Dataspace, props *hdf5.CreateProps) (vol.Dataset, error) {
	d, err := ag.g.CreateDataset(uncharged(), name, dtype, space, props)
	if err != nil {
		return nil, err
	}
	if err := ag.deferMeta(pr, 1); err != nil {
		return nil, err
	}
	return &asyncDataset{c: ag.c, d: d, raw: d.Unwrap()}, nil
}

func (ag *asyncGroup) OpenDataset(pr vol.Props, path string) (vol.Dataset, error) {
	d, err := ag.g.OpenDataset(uncharged(), path)
	if err != nil {
		return nil, err
	}
	if err := ag.deferMeta(pr, pathOps(path)); err != nil {
		return nil, err
	}
	return &asyncDataset{c: ag.c, d: d, raw: d.Unwrap()}, nil
}

func (ag *asyncGroup) SetAttrInt64(pr vol.Props, name string, v int64) error {
	if err := ag.g.SetAttrInt64(uncharged(), name, v); err != nil {
		return err
	}
	return ag.deferMeta(pr, 1)
}

type asyncDataset struct {
	c   *Connector
	d   vol.Dataset   // native handle (metadata)
	raw *hdf5.Dataset // request target
}

// request builds the ioreq descriptor for one operation on this
// dataset. The selection is copied for staged (inline) requests, which
// outlive the call; synchronous fallbacks pass the caller's selection
// straight through.
func (ad *asyncDataset) request(op ioreq.Op, pr vol.Props, fspace *hdf5.Dataspace, buf []byte) *ioreq.Request {
	return &ioreq.Request{
		Op:      op,
		Dataset: ad.raw,
		Space:   fspace,
		Buf:     buf,
		Proc:    pr.Proc,
		Span:    pr.Span,
		Tag:     setTag(pr.Set),
	}
}

// Write stages the buffer (charging the transactional overhead on the
// calling process), enqueues the real write on the background stream,
// and returns. Completion is observable through pr.Set, Drain, Flush,
// or Close.
func (ad *asyncDataset) Write(pr vol.Props, fspace *hdf5.Dataspace, buf []byte) error {
	var sel *hdf5.Dataspace
	if fspace != nil {
		sel = fspace.Copy()
	}
	return ad.c.inline.Do(ad.request(ioreq.OpWrite, pr, sel, buf))
}

// WriteDiscard stages a write without byte movement: the caller pays
// the transactional copy, the background stream pays the file-system
// write. See vol.Dataset.
func (ad *asyncDataset) WriteDiscard(pr vol.Props, fspace *hdf5.Dataspace) error {
	var sel *hdf5.Dataspace
	if fspace != nil {
		sel = fspace.Copy()
	}
	return ad.c.inline.Do(ad.request(ioreq.OpWriteNull, pr, sel, nil))
}

// ReadDiscard serves a timing-only read: a matching prefetch costs only
// the staging copy, otherwise a blocking charged read runs.
func (ad *asyncDataset) ReadDiscard(pr vol.Props, fspace *hdf5.Dataspace) error {
	c := ad.c
	nbytes := ad.NBytes()
	if fspace != nil {
		nbytes = int64(fspace.SelectionCount()) * int64(ad.Dtype().Size)
	}
	key := ad.key(fspace)
	entry, ok := c.cache[key]
	if ok {
		delete(c.cache, key)
	}
	if !ok {
		return c.exec.Do(ad.request(ioreq.OpReadNull, pr, fspace, nil))
	}
	waitStart := procNow(pr.Proc)
	if err := entry.task.Wait(pr.Proc); err != nil {
		return err
	}
	c.opts.Crit.Record(critpath.Edge{
		Track: procName(pr.Proc), Cause: critpath.QueueWait, Subsystem: "asyncvol",
		Detail: "prefetch", Start: waitStart, End: procNow(pr.Proc),
	})
	if c.opts.Copy != nil {
		c.opts.Copy.Copy(pr.Proc, nbytes)
	}
	return nil
}

// Read serves the selection from a matching prefetch staging buffer if
// one exists (waiting for the background read if it is still in flight,
// then charging only the staging copy); otherwise it falls back to a
// blocking synchronous read, exactly like the first time step in the
// paper's BD-CATS-IO runs.
func (ad *asyncDataset) Read(pr vol.Props, fspace *hdf5.Dataspace, buf []byte) error {
	c := ad.c
	key := ad.key(fspace)
	entry, ok := c.cache[key]
	if ok {
		delete(c.cache, key)
	}
	if !ok {
		return c.exec.Do(ad.request(ioreq.OpRead, pr, fspace, buf))
	}
	waitStart := procNow(pr.Proc)
	if err := entry.task.Wait(pr.Proc); err != nil {
		return err
	}
	c.opts.Crit.Record(critpath.Edge{
		Track: procName(pr.Proc), Cause: critpath.QueueWait, Subsystem: "asyncvol",
		Detail: "prefetch", Start: waitStart, End: procNow(pr.Proc),
	})
	if c.opts.Copy != nil {
		c.opts.Copy.Copy(pr.Proc, int64(len(buf)))
	}
	if entry.buf != nil {
		if len(entry.buf) != len(buf) {
			return fmt.Errorf("asyncvol: prefetch buffer %d bytes vs read buffer %d", len(entry.buf), len(buf))
		}
		copy(buf, entry.buf)
	}
	return nil
}

// Prefetch stages the selection in the background. A later Read with an
// equal selection is served from the staging buffer.
func (ad *asyncDataset) Prefetch(pr vol.Props, fspace *hdf5.Dataspace) error {
	c := ad.c
	es, err := eventSetOf(setTag(pr.Set))
	if err != nil {
		return err
	}
	key := ad.key(fspace)
	var sel *hdf5.Dataspace
	nbytes := ad.NBytes()
	if fspace != nil {
		sel = fspace.Copy()
		nbytes = int64(fspace.SelectionCount()) * int64(ad.Dtype().Size)
	}
	var staging []byte
	if c.opts.Materialize {
		staging = make([]byte, nbytes)
	}
	if _, dup := c.cache[key]; dup {
		return nil // already staged or in flight
	}
	// Timing-only mode (no staging buffer) charges the read without
	// materializing.
	op := &bgOp{r: ioreq.Request{Op: ioreq.OpReadNull, Dataset: ad.raw, Space: sel, Span: pr.Span}}
	if staging != nil {
		op.r.Op, op.r.Buf = ioreq.OpRead, staging
	}
	task := c.push("H5Dread:prefetch", op)
	if es != nil {
		es.add(task)
	}
	c.cache[key] = &cacheEntry{task: task, buf: staging}
	return nil
}

func (ad *asyncDataset) key(fspace *hdf5.Dataspace) cacheKey {
	sel := "all"
	if fspace != nil {
		sel = fspace.String()
	}
	return cacheKey{uid: ad.raw.UID(), sel: sel}
}

func (ad *asyncDataset) Dtype() hdf5.Datatype  { return ad.d.Dtype() }
func (ad *asyncDataset) NBytes() int64         { return ad.d.NBytes() }
func (ad *asyncDataset) Unwrap() *hdf5.Dataset { return ad.raw }

// EventSet tracks asynchronous operations, like H5ES.
type EventSet struct {
	tasks []*taskengine.Task
	crit  *critpath.Recorder
}

// NewEventSet returns an empty event set.
func NewEventSet() *EventSet { return &EventSet{} }

// SetCrit attaches the critical-path recorder; Wait records its
// blocking interval as a queue-wait edge. Call before the run.
func (es *EventSet) SetCrit(rec *critpath.Recorder) {
	if es == nil {
		return
	}
	es.crit = rec
}

func (es *EventSet) add(t *taskengine.Task) { es.tasks = append(es.tasks, t) }

// Wait blocks p until every tracked operation completes, returning the
// first error. The set is emptied.
func (es *EventSet) Wait(p *vclock.Proc) error {
	tasks, rec := es.tasks, es.crit
	es.tasks = nil
	start := procNow(p)
	var first error
	for _, t := range tasks {
		if err := t.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	if len(tasks) > 0 {
		rec.Record(critpath.Edge{
			Track: procName(p), Cause: critpath.QueueWait, Subsystem: "asyncvol",
			Detail: "eventset", Start: start, End: procNow(p),
		})
	}
	return first
}

// Timing-only scratch reads in Prefetch allocate nbytes transiently;
// interface conformance checks.
var (
	_ vol.Connector = (*Connector)(nil)
	_ vol.EventSet  = (*EventSet)(nil)
	_ ioreq.Stage   = stagingStage{}
)
