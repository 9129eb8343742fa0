// Package recovery provides crash-consistency for asynchronous I/O: a
// write-ahead journal that records dataset writes before they enter the
// background pipeline, and a post-crash scanner that classifies each
// journaled extent as committed, torn, or lost against the surviving
// file image and optionally replays it.
//
// The journal models a small synchronous log device (a burst buffer or
// NVRAM strip): appends charge the writing process a fixed latency plus
// a bandwidth term, and the log itself is assumed durable — crash
// tearing applies to the data container, not the WAL. Torn-journal
// handling still matters for robustness (a real log can lose its tail),
// so the decoder treats any truncated or corrupt record as the end of
// the usable log and reports a typed error rather than failing the
// whole scan.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/metrics"
	"asyncio/internal/vclock"
)

// maxRuns is a decode limit: a record that claims more is corrupt, not
// merely large. Paths are already capped at 64 KiB by the u16 length,
// and a payload by MaxFramePayload — the body has to fit one frame.
const maxRuns = 1 << 20

// Run is one maximal contiguous run of journaled elements in the
// dataset's row-major linear element space (the same coordinates
// Dataspace.EachRun yields).
type Run struct {
	Off uint64 // first element
	N   uint64 // run length in elements
}

// Record is one journaled write. Payload, when captured, holds the
// packed element bytes in run order; without it the scanner can locate
// the write but not verify or replay it.
type Record struct {
	Seq      uint64
	Path     string // absolute dataset path, e.g. "/Timestep_3/x"
	ElemSize uint32
	Runs     []Run
	Payload  []byte // nil when payload capture is off
}

// NBytes returns the total journaled byte count.
func (r *Record) NBytes() int64 {
	var elems uint64
	for _, run := range r.Runs {
		elems += run.N
	}
	return int64(elems) * int64(r.ElemSize)
}

// flag bits in the record header.
const flagPayload = 1 << 0

// ErrCorruptJournal is wrapped by every decode failure, so callers can
// errors.Is against a single sentinel.
var ErrCorruptJournal = errors.New("recovery: corrupt journal")

// JournalError reports where and why journal decoding stopped. It wraps
// ErrCorruptJournal.
type JournalError struct {
	Off    int64 // byte offset of the failed record
	Reason string
}

func (e *JournalError) Error() string {
	return fmt.Sprintf("recovery: corrupt journal at byte %d: %s", e.Off, e.Reason)
}

func (e *JournalError) Unwrap() error { return ErrCorruptJournal }

// Cost models the synchronous append charge: AppendLatency per record
// plus record-bytes / Bandwidth (bytes per second). A zero Cost makes
// appends free.
type Cost struct {
	AppendLatency time.Duration
	Bandwidth     float64
}

// DefaultCost approximates a local NVMe log device.
func DefaultCost() Cost {
	return Cost{AppendLatency: 10 * time.Microsecond, Bandwidth: 3e9}
}

// Journal is an append-only write-ahead log shared by the rank
// processes of one run; records are sequenced in append order.
type Journal struct {
	cost Cost

	buf  []byte
	body []byte // encode scratch, reused across appends
	seq  uint64

	// Pay-for-use instruments; nil-safe when never registered.
	mRecords *metrics.Counter
	mBytes   *metrics.Counter

	crit *critpath.Recorder
}

// SetCrit attaches the critical-path recorder; charged appends record
// fsync-journal edges. Call once, before the run.
func (j *Journal) SetCrit(rec *critpath.Recorder) {
	if j == nil {
		return
	}
	j.crit = rec
}

// NewJournal returns an empty journal with the given append cost.
func NewJournal(cost Cost) *Journal { return &Journal{cost: cost} }

// Instrument registers append counters under "recovery.<name>.journal.*".
func (j *Journal) Instrument(m *metrics.Registry, name string) {
	prefix := "recovery." + name + ".journal."
	j.mRecords = m.Counter(prefix + "records")
	j.mBytes = m.Counter(prefix + "bytes")
}

// Append encodes rec, charges p the modeled log-write cost, and appends
// the record. The sequence number is assigned here (rec.Seq is
// overwritten) so the ranks' records get a total order.
func (j *Journal) Append(p *vclock.Proc, rec *Record) error {
	if len(rec.Path) > math.MaxUint16 {
		return fmt.Errorf("recovery: journal path %d bytes exceeds limit %d", len(rec.Path), math.MaxUint16)
	}
	if len(rec.Runs) > maxRuns {
		return fmt.Errorf("recovery: journal record has %d runs, limit %d", len(rec.Runs), maxRuns)
	}
	size := recordSize(rec)
	if body := size - 8; body > MaxFramePayload {
		return fmt.Errorf("recovery: journal record body %d bytes exceeds frame limit %d", body, MaxFramePayload)
	}
	// Charge first: the record takes its place in the log when the
	// append completes, not when it was issued.
	if p != nil {
		d := j.cost.AppendLatency
		if j.cost.Bandwidth > 0 {
			d += time.Duration(float64(size) / j.cost.Bandwidth * float64(time.Second))
		}
		if d > 0 {
			start := p.Now()
			p.Sleep(d)
			j.crit.Record(critpath.Edge{
				Track: p.Name(), Cause: critpath.FsyncJournal, Subsystem: "recovery",
				Detail: "journal-append", Start: start, End: p.Now(), Bytes: int64(size),
			})
		}
	}
	j.seq++
	rec.Seq = j.seq
	j.body = appendBody(j.body[:0], rec)
	j.buf = AppendFrame(j.buf, j.body)
	j.mRecords.Add(1)
	j.mBytes.Add(int64(size))
	return nil
}

// Bytes returns a copy of the current log contents.
func (j *Journal) Bytes() []byte { return append([]byte(nil), j.buf...) }

// Reset truncates the log, e.g. after a durable checkpoint makes all
// journaled writes redundant.
func (j *Journal) Reset() { j.buf = j.buf[:0] }

// recordSize is the size the modelled log device stores for rec — what
// an append is charged for and what recovery.<name>.journal.bytes
// counts. It is the model's own record (a 4-byte magic, the body, a
// 4-byte checksum), not the in-memory frame around the body.
func recordSize(rec *Record) int {
	// magic u32, seq u64, flags u8, pathLen u16, path, elemSize u32,
	// nRuns u32, runs 16B each, [payloadLen u64, payload], crc u32.
	n := 4 + 8 + 1 + 2 + len(rec.Path) + 4 + 4 + 16*len(rec.Runs) + 4
	if rec.Payload != nil {
		n += 8 + len(rec.Payload)
	}
	return n
}

// appendBody encodes rec onto buf, little-endian: seq u64, flags u8,
// pathLen u16, path, elemSize u32, nRuns u32, runs, then with
// flagPayload payloadLen u64 and the payload. The frame around it
// (frame.go) supplies magic, length and checksum.
func appendBody(buf []byte, rec *Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	var flags byte
	if rec.Payload != nil {
		flags |= flagPayload
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Path)))
	buf = append(buf, rec.Path...)
	buf = binary.LittleEndian.AppendUint32(buf, rec.ElemSize)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Runs)))
	for _, run := range rec.Runs {
		buf = binary.LittleEndian.AppendUint64(buf, run.Off)
		buf = binary.LittleEndian.AppendUint64(buf, run.N)
	}
	if rec.Payload != nil {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rec.Payload)))
		buf = append(buf, rec.Payload...)
	}
	return buf
}

// DecodeJournal parses a journal image: one frame per record. It
// returns every record up to the first corruption; err is nil for a
// clean log and a *JournalError (wrapping ErrCorruptJournal) when the
// tail is torn, truncated, fails its checksum, or frames a malformed
// body — decoding stops there, it does not resync. Decoding never
// panics on hostile input.
func DecodeJournal(b []byte) (recs []Record, err error) {
	for off := 0; off < len(b); {
		body, n, reason := decodeFrame(b[off:])
		var rec Record
		if reason == "" {
			rec, reason = decodeBody(body)
		}
		if reason != "" {
			return recs, &JournalError{Off: int64(off), Reason: reason}
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, nil
}

// decodeBody parses one record body (a frame payload, so its checksum
// already verified — but a valid frame can still carry hostile bytes),
// returning a non-empty reason on failure.
func decodeBody(b []byte) (rec Record, reason string) {
	const fixedHead = 8 + 1 + 2 // seq, flags, pathLen
	if len(b) < fixedHead {
		return rec, "truncated header"
	}
	rec.Seq = binary.LittleEndian.Uint64(b)
	flags := b[8]
	if flags&^byte(flagPayload) != 0 {
		return rec, fmt.Sprintf("unknown flag bits %#x", flags)
	}
	pathLen := int(binary.LittleEndian.Uint16(b[9:]))
	off := fixedHead
	if len(b) < off+pathLen+8 {
		return rec, "truncated path"
	}
	rec.Path = string(b[off : off+pathLen])
	off += pathLen
	rec.ElemSize = binary.LittleEndian.Uint32(b[off:])
	nRuns := int(binary.LittleEndian.Uint32(b[off+4:]))
	off += 8
	if nRuns > maxRuns {
		return rec, fmt.Sprintf("implausible run count %d", nRuns)
	}
	if len(b)-off < 16*nRuns {
		return rec, "truncated run list"
	}
	var totalElems uint64
	rec.Runs = make([]Run, nRuns)
	for i := range rec.Runs {
		rec.Runs[i] = Run{
			Off: binary.LittleEndian.Uint64(b[off:]),
			N:   binary.LittleEndian.Uint64(b[off+8:]),
		}
		off += 16
		if rec.Runs[i].N > math.MaxUint64-totalElems {
			return rec, "element count overflow"
		}
		totalElems += rec.Runs[i].N
	}
	if flags&flagPayload != 0 {
		if len(b) < off+8 {
			return rec, "truncated payload length"
		}
		payloadLen := binary.LittleEndian.Uint64(b[off:])
		off += 8
		if payloadLen > MaxFramePayload {
			return rec, fmt.Sprintf("implausible payload size %d", payloadLen)
		}
		want := totalElems * uint64(rec.ElemSize)
		if totalElems != 0 && want/totalElems != uint64(rec.ElemSize) {
			return rec, "payload size overflow"
		}
		if payloadLen != want {
			return rec, fmt.Sprintf("payload %d bytes, runs describe %d", payloadLen, want)
		}
		if uint64(len(b)-off) < payloadLen {
			return rec, "truncated payload"
		}
		rec.Payload = append([]byte(nil), b[off:off+int(payloadLen)]...)
		off += int(payloadLen)
	}
	if off != len(b) {
		return rec, fmt.Sprintf("%d trailing bytes after record", len(b)-off)
	}
	return rec, ""
}
