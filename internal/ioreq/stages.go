package ioreq

import (
	"errors"
	"fmt"
	"time"

	"asyncio/internal/vclock"
)

// validateStage normalizes and checks the request before later stages
// act on it: a nil selection becomes the full extent, the selection's
// rank and (for buffered ops) extent must match the dataset, and the
// buffer must match the selection's byte count. It mirrors the hdf5
// layer's own checks so malformed requests fail before an aggregation
// stage could merge them.
type validateStage struct{}

func (validateStage) Name() string { return "validate" }

func (validateStage) Process(req *Request, next func(*Request) error) error {
	if req.Dataset == nil {
		return fmt.Errorf("ioreq: %s request has no dataset", req.Op)
	}
	d := req.Dataset
	if req.Space == nil {
		req.Space = d.Space()
	} else {
		if req.Space.NDims() != d.NDims() {
			return fmt.Errorf("ioreq: selection rank %d vs dataset rank %d",
				req.Space.NDims(), d.NDims())
		}
		if (req.Op == OpWrite || req.Op == OpRead) && !d.SameExtent(req.Space) {
			return fmt.Errorf("ioreq: selection extent %v vs dataset extent %v", req.Space.Dims(), d.Dims())
		}
	}
	req.NBytes = int64(req.Space.SelectionCount()) * int64(d.Dtype().Size)
	if (req.Op == OpWrite || req.Op == OpRead) && int64(len(req.Buf)) != req.NBytes {
		return fmt.Errorf("ioreq: buffer is %d bytes, selection needs %d", len(req.Buf), req.NBytes)
	}
	return next(req)
}

func (validateStage) Flush(*vclock.Proc, func(*Request) error) error { return nil }

// resolveStage computes the request's contiguity: whether the selection
// is one contiguous run (the shape aggregation can merge). Enumeration
// is capped at two runs — enough to decide contiguity without walking a
// point selection's full run list.
type resolveStage struct{}

func (resolveStage) Name() string { return "resolve" }

func (resolveStage) Process(req *Request, next func(*Request) error) error {
	resolve(req)
	return next(req)
}

func (resolveStage) Flush(*vclock.Proc, func(*Request) error) error { return nil }

// errStopWalk aborts a capped EachRun enumeration; it never escapes.
var errStopWalk = errors.New("ioreq: stop walk")

// resolve fills the request's run/contiguity fields (idempotent).
func resolve(req *Request) {
	if req.resolved || req.Dataset == nil {
		return
	}
	req.resolved = true
	sp := req.Space
	if sp == nil {
		sp = req.Dataset.Space()
	}
	runs := 0
	err := sp.EachRun(func(off, n uint64) error {
		runs++
		if runs == 1 {
			req.run = Run{Off: off, N: n}
			return nil
		}
		return errStopWalk // two runs seen: not contiguous
	})
	req.contig = err == nil && runs == 1
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
