package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing — the one checksummed-record codec in the tree: the
// write-ahead journal (journal.go) frames each record body with it, and
// so does the campaign point store for its segment files. A frame is:
//
//	magic    u32  little-endian FrameMagic
//	length   u32  payload byte count
//	payload  length bytes, caller-defined
//	crc      u32  CRC32-IEEE over magic, length, and payload
//
// A decoder either returns the exact payload that was appended or a
// typed *FrameError — a torn tail, a flipped bit, and hostile garbage
// all surface as errors, never as wrong bytes, and decoding never
// panics.

// FrameMagic opens every frame ("FRM1" little-endian).
const FrameMagic uint32 = 0x314D5246

// MaxFramePayload caps a single frame's payload; a length field beyond
// it is treated as corruption rather than an allocation request.
const MaxFramePayload = 1 << 30

// frameOverhead is the fixed cost of framing a payload: magic, length,
// and trailing CRC.
const frameOverhead = 4 + 4 + 4

// ErrCorruptFrame is wrapped by every frame decode failure, so callers
// can errors.Is against a single sentinel.
var ErrCorruptFrame = errors.New("recovery: corrupt frame")

// FrameError reports where and why frame decoding failed. It wraps
// ErrCorruptFrame.
type FrameError struct {
	Off    int64 // byte offset of the failed frame within the caller's buffer
	Reason string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("recovery: corrupt frame at byte %d: %s", e.Off, e.Reason)
}

func (e *FrameError) Unwrap() error { return ErrCorruptFrame }

// AppendFrame appends one framed payload to dst and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, FrameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// DecodeFrame parses one frame from the front of b. On success it
// returns the payload (aliasing b, not a copy) and the total encoded
// frame length. On failure it returns a *FrameError with Off 0; callers
// scanning a larger buffer add their own base offset.
func DecodeFrame(b []byte) (payload []byte, n int, err error) {
	payload, n, reason := decodeFrame(b)
	if reason != "" {
		return nil, 0, &FrameError{Reason: reason}
	}
	return payload, n, nil
}

// decodeFrame is DecodeFrame with the failure as its bare reason.
func decodeFrame(b []byte) (payload []byte, n int, reason string) {
	if len(b) < 8 {
		return nil, 0, "truncated header"
	}
	if binary.LittleEndian.Uint32(b) != FrameMagic {
		return nil, 0, "bad frame magic"
	}
	plen := binary.LittleEndian.Uint32(b[4:])
	if plen > MaxFramePayload {
		return nil, 0, fmt.Sprintf("implausible payload size %d", plen)
	}
	total := int(plen) + frameOverhead
	if len(b) < total {
		return nil, 0, fmt.Sprintf("truncated frame: have %d of %d bytes", len(b), total)
	}
	want := binary.LittleEndian.Uint32(b[total-4:])
	if crc := crc32.ChecksumIEEE(b[:total-4]); crc != want {
		return nil, 0, fmt.Sprintf("checksum mismatch: have %#x want %#x", crc, want)
	}
	return b[8 : total-4], total, ""
}

// ResyncFrame scans b for the next offset >= from at which a complete,
// checksum-valid frame begins, and returns that offset or -1. It is the
// recovery path after mid-log corruption: everything between the
// failure point and the resync offset is damage to quarantine, and
// because candidates must fully decode, a stray magic inside corrupt
// payload bytes cannot produce a false resync.
func ResyncFrame(b []byte, from int) int {
	if from < 0 {
		from = 0
	}
	for off := from; off+frameOverhead <= len(b); off++ {
		if binary.LittleEndian.Uint32(b[off:]) != FrameMagic {
			continue
		}
		if _, _, reason := decodeFrame(b[off:]); reason == "" {
			return off
		}
	}
	return -1
}
