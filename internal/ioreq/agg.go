package ioreq

import (
	"sort"

	"asyncio/internal/hdf5"
	"asyncio/internal/vclock"
)

// AggConfig parameterizes write aggregation — the property-list knob
// that enables it. The zero value disables aggregation entirely.
type AggConfig struct {
	// MaxRequests flushes a dataset's pending requests once this many
	// are buffered. Set it to the writer count for one coalesced
	// dispatch per collective write (two-phase collective buffering).
	MaxRequests int
}

// AggStats counts an AggStage's traffic.
type AggStats struct {
	// Buffered is how many requests entered a pending chain.
	Buffered int64
	// Dispatched is how many requests left the stage downstream
	// (merged requests count once).
	Dispatched int64
	// Absorbed is how many buffered requests were folded into a merged
	// neighbor instead of dispatching on their own.
	Absorbed int64
	// Passthrough is how many ineligible requests were forwarded
	// unchanged (reads, multi-run selections, N-D datasets).
	Passthrough int64
}

// AggStage coalesces adjacent same-dataset writes into single dispatches
// — the two-phase-style collective buffering that lifts the parallel
// file system's small-request penalty (the VPIC-IO regime where every
// rank writes a thin adjacent slab of the same 1-D dataset).
//
// Eligible requests (1-D writes whose selection is a single contiguous
// run) are buffered per (dataset, op). When a chain reaches the
// configured window it is sorted by file offset, adjacent runs are
// merged into one request (concatenating buffers for materialized
// writes), and the results continue down the pipeline charged to the
// triggering request's process. Pipeline.Flush dispatches partial
// chains, charged to the flushing process.
//
// Semantics callers must accept when enabling aggregation:
//
//   - A buffered write is not durable (or even charged) until its chain
//     flushes; Pipeline.Flush on epoch/file boundaries bounds the delay.
//   - The caller's buffer is retained until dispatch.
//   - Merged requests assume writers cover disjoint ranges, as
//     collective I/O patterns do; overlapping writes are dispatched
//     unmerged but in file order, not program order.
type AggStage struct {
	cfg AggConfig

	pending map[aggKey]*aggChain
	seq     int64 // stamps chains with creation order for Flush
	stats   AggStats
}

type aggKey struct {
	uid any
	op  Op
}

type aggChain struct {
	reqs []*Request
	seq  int64
}

// NewAgg returns an aggregation stage. A disabled config yields a stage
// that passes everything through.
func NewAgg(cfg AggConfig) *AggStage {
	return &AggStage{cfg: cfg, pending: make(map[aggKey]*aggChain)}
}

// Name implements Stage.
func (a *AggStage) Name() string { return "aggregate" }

// Stats returns the stage's counters.
func (a *AggStage) Stats() AggStats { return a.stats }

// eligible reports whether req can join an aggregation chain: a write
// of at least one byte to a 1-D dataset through a single contiguous
// run.
func (a *AggStage) eligible(req *Request) bool {
	if a.cfg.MaxRequests <= 0 || !req.Op.IsWrite() || req.Dataset == nil {
		return false
	}
	if req.Dataset.NDims() != 1 || req.Bytes() <= 0 {
		return false
	}
	_, contig := req.Contiguous()
	return contig
}

// Process implements Stage. Eligible requests are buffered and Process
// returns nil — completion of a buffered write is observable only after
// its chain flushes (window trigger, Pipeline.Flush, or file
// flush/close).
func (a *AggStage) Process(req *Request, next func(*Request) error) error {
	if !a.eligible(req) {
		a.stats.Passthrough++
		return next(req)
	}
	// The request outlives this call; detach the selection from the
	// caller, who may legally reuse it after Write returns.
	if req.Space != nil {
		req.Space = req.Space.Copy()
	}
	a.stats.Buffered++
	k := aggKey{uid: req.Dataset.UID(), op: req.Op}
	ch := a.pending[k]
	if ch == nil {
		a.seq++
		ch = &aggChain{seq: a.seq}
		a.pending[k] = ch
	}
	ch.reqs = append(ch.reqs, req)
	if len(ch.reqs) < a.cfg.MaxRequests {
		return nil
	}
	// The full chain leaves the table before it dispatches: dispatch
	// charges virtual time (Proc.Sleep), and other ranks' requests arriving
	// meanwhile start a new chain.
	delete(a.pending, k)
	return a.dispatch(ch, req.Proc, next)
}

// Flush implements Stage: every partial chain dispatches, charged to p.
func (a *AggStage) Flush(p *vclock.Proc, next func(*Request) error) error {
	chains := make([]*aggChain, 0, len(a.pending))
	for _, ch := range a.pending {
		chains = append(chains, ch)
	}
	clear(a.pending)
	// Dispatch order is observable (each dispatch charges virtual time
	// to p); map order is not deterministic, chain creation order is.
	sort.Slice(chains, func(i, j int) bool { return chains[i].seq < chains[j].seq })
	var first error
	for _, ch := range chains {
		if err := a.dispatch(ch, p, next); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// dispatch sorts a chain by file offset, merges maximal groups of
// adjacent runs, and sends the results downstream charged to p.
func (a *AggStage) dispatch(ch *aggChain, p *vclock.Proc, next func(*Request) error) error {
	reqs := ch.reqs
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].run.Off < reqs[j].run.Off })
	var first error
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && reqs[j-1].run.Off+reqs[j-1].run.N == reqs[j].run.Off {
			j++
		}
		out := reqs[i]
		if j > i+1 {
			merged, err := a.merge(reqs[i:j], p)
			if err != nil {
				if first == nil {
					first = err
				}
				i = j
				continue
			}
			out = merged
		}
		out.Proc = p
		a.stats.Dispatched++
		if err := next(out); err != nil && first == nil {
			first = err
		}
		i = j
	}
	return first
}

// merge folds a group of adjacent requests into one covering their
// combined range, concatenating buffers for materialized writes. The
// originals become the merged request's Sources; their spans each record
// the absorption.
func (a *AggStage) merge(group []*Request, p *vclock.Proc) (*Request, error) {
	first := group[0]
	start := first.run.Off
	var elems uint64
	var nbytes int64
	for _, r := range group {
		elems += r.run.N
		nbytes += r.Bytes()
	}
	sp, err := hdf5.NewSimple(first.Dataset.Dims()...)
	if err != nil {
		return nil, err
	}
	if err := sp.SelectHyperslab([]uint64{start}, nil, []uint64{1}, []uint64{elems}); err != nil {
		return nil, err
	}
	m := &Request{
		Op:       first.Op,
		Dataset:  first.Dataset,
		Space:    sp,
		Proc:     p,
		NBytes:   nbytes,
		Sources:  append([]*Request(nil), group...),
		resolved: true,
		contig:   true,
		run:      Run{Off: start, N: elems},
	}
	if first.Op == OpWrite {
		buf := make([]byte, 0, nbytes)
		for _, r := range group {
			buf = append(buf, r.Buf...)
		}
		m.Buf = buf
	}
	at := procNow(p)
	track := procName(p)
	for _, r := range group {
		if m.Span == nil {
			m.Span = r.Span
		}
		if r.Tag != nil && m.Tag == nil {
			m.Tag = r.Tag
		}
		r.Span.EventOn("ioreq:agg:absorbed", r.Bytes(), at, track)
	}
	m.Span.EventOn("ioreq:agg:merged", nbytes, at, track)
	a.stats.Absorbed += int64(len(group) - 1)
	return m, nil
}

var _ Stage = (*AggStage)(nil)
