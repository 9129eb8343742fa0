// Package ioreq reifies dataset I/O as first-class request objects
// flowing through a staged pipeline — the spine every connector's data
// path shares. Instead of each layer (hdf5 dataset code, vol.Native,
// asyncvol) re-deriving "rank R wants these bytes of this selection of
// this dataset" from loose arguments, the operation is constructed once
// as a Request and executed by a Pipeline of Stages; cross-cutting
// features (validation, chunk-run resolution, write aggregation,
// tracing) become stages instead of per-call-site edits.
//
// The default pipeline is validate → resolve → execute; connectors may
// interpose extra stages (asyncvol inserts its transactional staging
// copy, and either path can insert an AggStage for two-phase-style
// collective write buffering).
package ioreq

import (
	"fmt"
	"sync"

	"asyncio/internal/hdf5"
	"asyncio/internal/metrics"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
)

// Op is the request's operation kind.
type Op uint8

// Operation kinds. The Null variants charge the driver and walk chunk
// allocation exactly like their counterparts without moving bytes
// (full-scale timing runs — see hdf5.Dataset.WriteNull).
const (
	OpWrite Op = iota
	OpRead
	OpWriteNull
	OpReadNull
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpWriteNull:
		return "write-null"
	case OpReadNull:
		return "read-null"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// IsWrite reports whether the op stores data (or charges a store).
func (o Op) IsWrite() bool { return o == OpWrite || o == OpWriteNull }

// Run is one maximal contiguous element run of a selection: Off is the
// linear element offset within the dataset extent, N the run length.
type Run struct {
	Off, N uint64
}

// Request describes one dataset I/O operation: what to do, to which
// dataset, over which selection, with which memory buffer, on behalf of
// which virtual-clock process, traced by which span. Requests are built
// by connectors and executed by a Pipeline; stages may annotate or
// replace them (aggregation folds several requests into one, recording
// the originals in Sources).
type Request struct {
	Op      Op
	Dataset *hdf5.Dataset
	// Space is the file-space selection; nil selects the whole extent
	// (normalized by the validate stage).
	Space *hdf5.Dataspace
	// Buf is the packed memory buffer for OpWrite/OpRead; nil for the
	// Null variants.
	Buf []byte
	// Proc is the virtual-clock process charged for the operation. For a
	// request dispatched by an aggregation flush this is the flusher's
	// process — time charges must always run on the goroutine that owns
	// them (see internal/vclock).
	Proc *vclock.Proc
	// Span, when non-nil, traces the request across layers.
	Span *trace.Span
	// Tag is connector-private context that rides along with the request
	// (asyncvol stores the caller's event set here).
	Tag any
	// Sources holds the original requests folded into this one by an
	// aggregation stage, in file order. Nil for un-merged requests.
	Sources []*Request

	// NBytes is the selection's byte count, set by the validate stage
	// (or lazily by Bytes).
	NBytes int64

	resolved bool
	contig   bool // selection is a single contiguous run
	run      Run  // first run; valid when resolved
}

// Bytes returns the request's payload size without requiring the
// validate stage to have run: buffer length when a buffer is present,
// else the selection's byte count.
func (r *Request) Bytes() int64 {
	if r.Buf != nil {
		return int64(len(r.Buf))
	}
	if r.NBytes > 0 {
		return r.NBytes
	}
	if r.Dataset == nil {
		return 0
	}
	if r.Space != nil {
		return int64(r.Space.SelectionCount()) * int64(r.Dataset.Dtype().Size)
	}
	return r.Dataset.NBytes()
}

// Contiguous reports whether the selection resolved to a single
// contiguous run, returning that run. Resolves lazily.
func (r *Request) Contiguous() (Run, bool) {
	resolve(r)
	return r.run, r.contig
}

// Stage is one step of a pipeline. Process handles a request and calls
// next to pass it (or derived requests) downstream; a stage may buffer
// the request and call next later from another Process or from Flush.
// Flush dispatches anything buffered, charging time to p — the process
// actually performing the flush.
type Stage interface {
	Name() string
	Process(req *Request, next func(*Request) error) error
	Flush(p *vclock.Proc, next func(*Request) error) error
}

// Pipeline chains stages over a terminal dispatch function. A pipeline
// whose stages hold no state (the standard validate → resolve → execute,
// which is vol's process-wide default) may serve procs of several clocks
// at once; one with a stateful stage (AggStage, retry, consistency)
// belongs to one clock.
type Pipeline struct {
	stages   []Stage
	terminal func(*Request) error
	metrics  *metrics.Registry
	// mRequests counts requests reaching the terminal; resolved once in
	// build (nil, a no-op, on an unmetered pipeline).
	mRequests *metrics.Counter
	// chain[i] enters the pipeline at stage i (chain[len(stages)] is the
	// terminal dispatch), memoized so the hot Do path allocates no
	// closures per request. The first Do or Flush builds it — once, after
	// WithMetrics has had its say, and safely for a pipeline that procs
	// of concurrent clocks share (vol's default).
	chain []func(*Request) error
	built sync.Once
}

// WithMetrics instruments the pipeline on m and returns it (chainable
// at construction; it has no effect after the first Do or Flush).
// Each stage records an inclusive latency histogram
// "ioreq.stage.<name>.seconds" — the virtual time from entering the
// stage to the request returning from everything downstream, measured
// on the request's process. Requests reaching the terminal count into
// "ioreq.requests"; merged requests additionally count into
// "ioreq.agg.merged_requests" with their absorbed originals in
// "ioreq.agg.merged_sources". A nil registry leaves the pipeline
// unmetered.
func (pl *Pipeline) WithMetrics(m *metrics.Registry) *Pipeline {
	if m != nil {
		pl.metrics = m
	}
	return pl
}

// New returns the standard pipeline — validate → resolve → extra… →
// Execute — used by synchronous connectors and by asyncvol's background
// execution.
func New(extra ...Stage) *Pipeline {
	stages := append([]Stage{validateStage{}, resolveStage{}}, extra...)
	return NewCustom(Execute, stages...)
}

// NewCustom builds a pipeline with an explicit terminal: asyncvol's
// inline path terminates at its queue's enqueue function instead of
// Execute.
func NewCustom(terminal func(*Request) error, stages ...Stage) *Pipeline {
	return &Pipeline{stages: stages, terminal: terminal}
}

// Do runs req through the pipeline.
func (pl *Pipeline) Do(req *Request) error {
	pl.built.Do(pl.build)
	return pl.chain[0](req)
}

// Flush dispatches everything buffered in any stage, front to back, so
// a flushed request still traverses the stages downstream of the one
// holding it. Time is charged to p.
func (pl *Pipeline) Flush(p *vclock.Proc) error {
	pl.built.Do(pl.build)
	var first error
	for i, st := range pl.stages {
		if err := st.Flush(p, pl.chain[i+1]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// build memoizes the stage dispatch chain, back to front.
func (pl *Pipeline) build() {
	pl.chain = make([]func(*Request) error, len(pl.stages)+1)
	pl.chain[len(pl.stages)] = pl.dispatch
	pl.mRequests = pl.metrics.Counter("ioreq.requests")
	for i := len(pl.stages) - 1; i >= 0; i-- {
		st, next := pl.stages[i], pl.chain[i+1]
		if pl.metrics == nil {
			pl.chain[i] = func(req *Request) error {
				return st.Process(req, next)
			}
			continue
		}
		hist := pl.metrics.Histogram("ioreq.stage." + st.Name() + ".seconds")
		pl.chain[i] = func(req *Request) error {
			// Capture the submitting proc before Process: a terminal may
			// hand the request to another proc (asyncvol's background
			// stream) that runs concurrently at this same virtual
			// instant, so req.Proc must not be re-read afterwards — and
			// the inclusive latency belongs on the submitter's clock.
			p := req.Proc
			start := procNow(p)
			err := st.Process(req, next)
			hist.Observe((procNow(p) - start).Seconds())
			return err
		}
	}
}

// dispatch invokes the terminal, counting the requests that actually
// leave the pipeline (a buffered aggregation write does not reach here
// until its chain flushes).
func (pl *Pipeline) dispatch(req *Request) error {
	pl.mRequests.Add(1)
	if n := len(req.Sources); n > 0 {
		// Looked up per merged request, not in build: an exported registry
		// lists every counter it holds, and only runs that aggregate
		// should list these two.
		pl.metrics.Counter("ioreq.agg.merged_requests").Add(1)
		pl.metrics.Counter("ioreq.agg.merged_sources").Add(int64(n))
	}
	return pl.terminal(req)
}

// Stages returns the pipeline's stage names, in order.
func (pl *Pipeline) Stages() []string {
	out := make([]string, len(pl.stages))
	for i, st := range pl.stages {
		out[i] = st.Name()
	}
	return out
}

// Execute is the standard terminal: it dispatches the request to the
// hdf5 layer, which charges the file's driver and moves the bytes.
func Execute(req *Request) error {
	if req.Dataset == nil {
		return fmt.Errorf("ioreq: %s request has no dataset", req.Op)
	}
	tp := &hdf5.TransferProps{Proc: req.Proc, Span: req.Span}
	switch req.Op {
	case OpWrite:
		return req.Dataset.Write(tp, req.Space, req.Buf)
	case OpRead:
		return req.Dataset.Read(tp, req.Space, req.Buf)
	case OpWriteNull:
		return req.Dataset.WriteNull(tp, req.Space)
	case OpReadNull:
		return req.Dataset.ReadNull(tp, req.Space)
	default:
		return fmt.Errorf("ioreq: unknown op %v", req.Op)
	}
}
