package recovery

import (
	"asyncio/internal/ioreq"
	"asyncio/internal/vclock"
)

// JournalStage is an ioreq pipeline stage that appends a write-ahead
// record for every write request before passing it downstream. Placed
// in an asynchronous connector's inline (caller-side) pipeline it gives
// WAL semantics: the journal append is charged synchronously to the
// issuing rank, so by the time the data write is queued in the
// background the log already describes it.
type JournalStage struct {
	j       *Journal
	capture bool
}

// NewJournalStage wraps j as a pipeline stage. capturePayload controls
// whether element bytes are copied into the log (enabling post-crash
// verification and replay) or only the extent map is recorded (cheaper,
// classification only).
func NewJournalStage(j *Journal, capturePayload bool) *JournalStage {
	return &JournalStage{j: j, capture: capturePayload}
}

// Name implements ioreq.Stage.
func (s *JournalStage) Name() string { return "journal" }

// Process journals write requests, then forwards every request
// unchanged. Reads pass through without a log entry.
func (s *JournalStage) Process(req *ioreq.Request, next func(*ioreq.Request) error) error {
	if req.Op.IsWrite() && req.Dataset != nil {
		rec := Record{
			Path:     req.Dataset.Path(),
			ElemSize: req.Dataset.Dtype().Size,
		}
		if req.Space == nil {
			rec.Runs = []Run{{Off: 0, N: req.Dataset.Space().Extent()}}
		} else {
			// EachRun cannot fail: the callback below is infallible.
			_ = req.Space.EachRun(func(off, n uint64) error {
				rec.Runs = append(rec.Runs, Run{Off: off, N: n})
				return nil
			})
		}
		if s.capture && req.Buf != nil {
			// Append encodes immediately, so referencing the caller's
			// buffer without copying is safe.
			rec.Payload = req.Buf
		}
		if err := s.j.Append(req.Proc, &rec); err != nil {
			return err
		}
	}
	return next(req)
}

// Flush implements ioreq.Stage. The journal buffers no requests, so
// there is nothing to emit downstream.
func (s *JournalStage) Flush(p *vclock.Proc, next func(*ioreq.Request) error) error {
	return nil
}
