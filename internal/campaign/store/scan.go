package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"asyncio/internal/recovery"
)

// ErrCorrupt is wrapped by every quarantined-range error, so callers
// can errors.Is against a single sentinel.
var ErrCorrupt = errors.New("store: corrupt record data")

// CorruptRangeError is the typed verdict on one quarantined byte range:
// a torn tail after a crash, a rotted record, or hostile garbage. It
// wraps ErrCorrupt.
type CorruptRangeError struct {
	Segment string // segment file name
	Off     int64  // first damaged byte
	Len     int64  // damaged byte count
	Reason  string // why decoding failed
	Tail    bool   // damage runs to end of file (the torn-write shape)

	seg int // the segment's id
}

func (e *CorruptRangeError) Error() string {
	kind := "corrupt range"
	if e.Tail {
		kind = "torn tail"
	}
	return fmt.Sprintf("store: %s in %s at byte %d (%d bytes): %s", kind, e.Segment, e.Off, e.Len, e.Reason)
}

func (e *CorruptRangeError) Unwrap() error { return ErrCorrupt }

// RecoveryReport describes what Open's scan/replay pass found.
type RecoveryReport struct {
	Segments   int // segment files scanned
	Records    int // checksum-valid records replayed
	Points     int // live keys after last-write-wins replay
	Superseded int // records shadowed by a later write of the same key

	// Quarantined lists every damaged byte range, one typed error per
	// range. The raw bytes are preserved under <dir>/quarantine/ for
	// post-mortems; the serving path never touches them.
	Quarantined      []*CorruptRangeError
	QuarantinedBytes int64
	// Healed names the repair applied: "" (nothing to heal),
	// "truncated torn tail", or "compacted damaged segments".
	Healed string
}

// Clean reports whether the scan found no damage at all.
func (r *RecoveryReport) Clean() bool { return len(r.Quarantined) == 0 }

// Summary renders a one-line human-readable digest.
func (r *RecoveryReport) Summary() string {
	s := fmt.Sprintf("%d segments, %d records, %d live points (%d superseded), %d quarantined",
		r.Segments, r.Records, r.Points, r.Superseded, len(r.Quarantined))
	if r.Healed != "" {
		s += ", healed: " + r.Healed
	}
	return s
}

// record encoding inside a frame payload: keyLen u16 | key | value.
// The frame supplies length, checksum, and resync; this layer only
// names the key.

const maxKeyLen = 1<<16 - 1

func encodeRecord(key string, val []byte) []byte {
	b := make([]byte, 0, 2+len(key)+len(val))
	b = append(b, byte(len(key)), byte(len(key)>>8))
	b = append(b, key...)
	return append(b, val...)
}

func decodeRecord(payload []byte) (key string, val []byte, err error) {
	if len(payload) < 2 {
		return "", nil, errors.New("record shorter than its key length field")
	}
	klen := int(payload[0]) | int(payload[1])<<8
	if len(payload) < 2+klen {
		return "", nil, fmt.Errorf("key length %d exceeds record", klen)
	}
	return string(payload[2 : 2+klen]), payload[2+klen:], nil
}

// segmentIDs lists the segment ids present in dir, ascending.
func segmentIDs(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading dir: %w", err)
	}
	var ids []int
	for _, e := range ents {
		var id int
		if n, _ := fmt.Sscanf(e.Name(), "points-%06d.seg", &id); n == 1 && e.Name() == segName(id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// recover is Open's scan/replay pass: walk every segment in id order,
// replay checksum-valid records last-write-wins into the index,
// quarantine damaged ranges, and heal (truncate a torn tail, or compact
// damaged segments away) so the next restart scans clean.
func (s *Store) recover() (*RecoveryReport, error) {
	// A compact.tmp is an interrupted compaction that never reached its
	// rename commit point: the old segments are still authoritative.
	if err := os.Remove(filepath.Join(s.opts.Dir, "compact.tmp")); err == nil {
		s.opts.Logf("store: removed interrupted compaction temp file")
	}
	ids, err := segmentIDs(s.opts.Dir)
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{Segments: len(ids)}
	for _, id := range ids {
		if err := s.openSegmentLocked(id); err != nil {
			return nil, err
		}
		seg := s.segs[id]
		buf := make([]byte, seg.size)
		if _, err := seg.f.ReadAt(buf, 0); err != nil && seg.size > 0 {
			return nil, fmt.Errorf("store: reading %s: %w", segName(id), err)
		}
		s.scanSegment(id, buf, rep)
	}
	rep.Points = len(s.index)
	// The scan runs before any Instrument call can have registered the
	// counters; Instrument backfills scan totals from this report.
	s.lastRep = rep

	if len(rep.Quarantined) > 0 {
		if err := s.saveQuarantine(rep); err != nil {
			return nil, err
		}
		if err := s.heal(rep); err != nil {
			return nil, err
		}
	}

	// The active segment is the highest-numbered survivor; a fresh one
	// is created lazily on first flush when the store is empty.
	s.active = s.segs[s.maxSegIDLocked()]
	s.updateGaugesLocked()
	for _, q := range rep.Quarantined {
		s.opts.Logf("store: quarantined: %v", q)
	}
	return rep, nil
}

// scanSegment replays one segment image into the index, appending a
// typed CorruptRangeError to rep for every undecodable byte range.
func (s *Store) scanSegment(id int, buf []byte, rep *RecoveryReport) {
	quarantine := func(off, end int, tail bool, reason string) {
		q := &CorruptRangeError{Segment: segName(id), Off: int64(off), Len: int64(end - off),
			Reason: reason, Tail: tail, seg: id}
		rep.Quarantined = append(rep.Quarantined, q)
		rep.QuarantinedBytes += q.Len
	}
	for off := 0; off < len(buf); {
		payload, n, err := recovery.DecodeFrame(buf[off:])
		if err != nil {
			// Resync past the damage: a later record that still
			// checksums is good data, everything skipped is quarantined.
			end := recovery.ResyncFrame(buf, off+1)
			if end < 0 {
				end = len(buf)
			}
			reason := err.Error()
			var fe *recovery.FrameError
			if errors.As(err, &fe) {
				reason = fe.Reason
			}
			quarantine(off, end, end == len(buf), reason)
			off = end
			continue
		}
		key, _, rerr := decodeRecord(payload)
		if rerr != nil {
			// The frame checksums but its payload is not a record —
			// quarantine just this frame and keep scanning.
			quarantine(off, off+n, false, "valid frame, malformed record: "+rerr.Error())
			off += n
			continue
		}
		rep.Records++
		if old, ok := s.index[key]; ok {
			// Last-write-wins: segments scan in ascending id and offsets
			// in ascending order, so this record supersedes the old one.
			rep.Superseded++
			s.deadB += int64(old.n)
			s.liveB -= int64(old.n)
		}
		s.index[key] = ref{seg: id, off: int64(off), n: n}
		s.liveB += int64(n)
		off += n
	}
}

// saveQuarantine copies every damaged byte range into
// <dir>/quarantine/<segment>.<off>.bin before healing destroys it, so
// no corrupt record ever disappears unaccounted.
func (s *Store) saveQuarantine(rep *RecoveryReport) error {
	qdir := filepath.Join(s.opts.Dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: creating quarantine dir: %w", err)
	}
	for _, q := range rep.Quarantined {
		buf := make([]byte, q.Len)
		if _, err := s.segs[q.seg].f.ReadAt(buf, q.Off); err != nil {
			return fmt.Errorf("store: reading quarantine range: %w", err)
		}
		name := fmt.Sprintf("%s.%d.bin", strings.TrimSuffix(q.Segment, ".seg"), q.Off)
		if err := os.WriteFile(filepath.Join(qdir, name), buf, 0o644); err != nil {
			return fmt.Errorf("store: writing quarantine file: %w", err)
		}
	}
	return nil
}

// heal removes quarantined damage from the serving path. A pure torn
// tail (the kill -9 shape) is truncated in place — cheap, and exactly
// what a real WAL does. Mid-segment damage triggers a compaction, which
// rewrites the live set into a fresh segment and deletes the damaged
// files under the atomic-rename protocol.
func (s *Store) heal(rep *RecoveryReport) error {
	for _, q := range rep.Quarantined {
		if !q.Tail {
			if err := s.compactLocked(); err != nil {
				return fmt.Errorf("store: healing compaction: %w", err)
			}
			rep.Healed = "compacted damaged segments"
			return nil
		}
	}
	for _, q := range rep.Quarantined {
		seg := s.segs[q.seg]
		if err := seg.f.Truncate(q.Off); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", q.Segment, err)
		}
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("store: fsync after truncate: %w", err)
		}
		seg.size = q.Off
	}
	rep.Healed = "truncated torn tail"
	return nil
}
