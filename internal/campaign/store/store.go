// Package store is the campaign service's durable point-result store:
// a persistent, content-addressed key/value log that sits behind the
// in-memory LRU so computed simulation points survive a daemon crash.
//
// Layout: a directory of append-only segment files (points-NNNNNN.seg),
// each a sequence of checksummed frames (internal/recovery's exported
// record framing) holding one key/value record. Writes are
// write-behind: Put lands in an in-memory pending table and a
// background flusher appends it to the active segment, so the serving
// hot path never waits on disk. Recovery is scan/replay: Open walks
// every segment in id order, replays records last-write-wins into the
// index, quarantines torn or corrupt byte ranges with typed errors, and
// heals the damage by truncating a torn tail or compacting corrupt
// segments away. Compaction rewrites the live set into a fresh segment
// and installs it with an atomic rename, so a crash at any point leaves
// either the old segments or the new one — never a half-written store.
//
// The crash-consistency contract mirrors the simulator's recovery
// journal: after a kill -9 at any instant, every record either survives
// byte-identical (its frame checksum proves it) or is quarantined and
// recomputed — a recovered point is indistinguishable from a freshly
// computed one because point computation is deterministic.
package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"asyncio/internal/metrics"
	"asyncio/internal/recovery"
)

// Options configures Open.
type Options struct {
	// Dir is the segment directory, created if absent. Required.
	Dir string
	// Fsync syncs the active segment after every flush batch. Off, a
	// kill -9 can lose writes the OS had not yet persisted; recovery
	// still never serves wrong bytes either way.
	Fsync bool
	// FlushEvery is the write-behind flush cadence (default 50ms).
	FlushEvery time.Duration
	// FlushBytes triggers an early flush once this much is pending
	// (default 1 MiB).
	FlushBytes int
	// SegmentBytes rolls the active segment past this size (default 8 MiB).
	SegmentBytes int64
	// CompactMinDead is the dead-byte floor below which auto-compaction
	// never triggers (default 64 KiB). Compaction also requires dead
	// bytes to exceed live bytes.
	CompactMinDead int64
	// Logf, when set, receives quarantine and compaction log lines; the
	// recovery summary is the caller's to print, from the report.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FlushEvery <= 0 {
		o.FlushEvery = 50 * time.Millisecond
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = 1 << 20
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CompactMinDead <= 0 {
		o.CompactMinDead = 64 << 10
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// ErrClosed is returned by operations on a closed (or abandoned) store.
var ErrClosed = errors.New("store: closed")

// ref locates one live record's frame inside a segment.
type ref struct {
	seg int   // segment id
	off int64 // frame start offset
	n   int   // frame length
}

// segment is one open segment file.
type segment struct {
	id   int
	f    *os.File
	size int64
}

func segName(id int) string { return fmt.Sprintf("points-%06d.seg", id) }

// Store is the durable point store. Safe for concurrent use.
type Store struct {
	opts Options

	mu       sync.Mutex
	index    map[string]ref
	pending  map[string][]byte // written, not yet flushed; last value wins
	order    []string          // pending flush order (unique keys)
	pendingB int
	segs     map[int]*segment
	active   *segment
	liveB    int64 // bytes of live frames
	deadB    int64 // bytes of superseded frames
	stopping bool  // Close/Abandon has begun; guards double-stop
	closed   bool

	lastRep *RecoveryReport // what Open's scan found; Instrument backfills from it

	flushKick chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup

	// Pay-for-use instruments; nil-safe when never registered.
	mScanRecords, mScanQuarantined *metrics.Counter
	mFlushRecords, mFlushBytes     *metrics.Counter
	mCompactions, mReadErrors      *metrics.Counter
	gPoints, gSegments, gLiveBytes *metrics.Gauge
}

// Open scans dir, replays every segment into the index (quarantining
// and healing any damage), and starts the write-behind flusher. The
// report describes what recovery found; it is never nil on success.
func Open(opts Options) (*Store, *RecoveryReport, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, errors.New("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating dir: %w", err)
	}
	s := &Store{
		opts:      opts,
		index:     make(map[string]ref),
		pending:   make(map[string][]byte),
		segs:      make(map[int]*segment),
		flushKick: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	rep, err := s.recover()
	if err != nil {
		s.closeFiles()
		return nil, nil, err
	}
	s.wg.Add(1)
	go s.flusher()
	return s, rep, nil
}

// Instrument registers the store's counters and gauges under
// "campaign.store.*". Call once, before serving.
func (s *Store) Instrument(m *metrics.Registry) {
	s.mScanRecords = m.Counter("campaign.store.scan.records")
	s.mScanQuarantined = m.Counter("campaign.store.scan.quarantined")
	s.mFlushRecords = m.Counter("campaign.store.flush.records")
	s.mFlushBytes = m.Counter("campaign.store.flush.bytes")
	s.mCompactions = m.Counter("campaign.store.compactions")
	s.mReadErrors = m.Counter("campaign.store.read.errors")
	s.gPoints = m.Gauge("campaign.store.points")
	s.gSegments = m.Gauge("campaign.store.segments")
	s.gLiveBytes = m.Gauge("campaign.store.live.bytes")
	s.mu.Lock()
	if rep := s.lastRep; rep != nil {
		// Open's scan ran before these counters existed: credit it now.
		s.mScanRecords.Add(int64(rep.Records))
		s.mScanQuarantined.Add(int64(len(rep.Quarantined)))
	}
	s.updateGaugesLocked()
	s.mu.Unlock()
}

func (s *Store) updateGaugesLocked() {
	s.gPoints.Set(float64(len(s.index) + len(s.pending)))
	s.gSegments.Set(float64(len(s.segs)))
	s.gLiveBytes.Set(float64(s.liveB))
}

// Stats is a point-in-time summary for health endpoints.
type Stats struct {
	Points       int // live keys (flushed + pending)
	Segments     int
	LiveBytes    int64
	PendingBytes int
}

func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Points:       s.pointsLocked(),
		Segments:     len(s.segs),
		LiveBytes:    s.liveB,
		PendingBytes: s.pendingB,
	}
}

// pointsLocked counts the live keys: the index plus the pending keys
// not yet in it (a pending overwrite of an indexed key is not a new
// point).
func (s *Store) pointsLocked() int {
	n := len(s.index)
	for k := range s.pending {
		if _, ok := s.index[k]; !ok {
			n++
		}
	}
	return n
}

// Put stores val under key, write-behind: the call returns once the
// value is in the pending table. A duplicate Put before the flush
// replaces the pending value (and identical point payloads make the
// question moot — values are content-addressed).
func (s *Store) Put(key string, val []byte) error {
	if len(key) > maxKeyLen {
		return fmt.Errorf("store: key %d bytes exceeds limit %d", len(key), maxKeyLen)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if old, ok := s.pending[key]; ok {
		s.pendingB -= len(old)
	} else {
		s.order = append(s.order, key)
	}
	s.pending[key] = append([]byte(nil), val...)
	s.pendingB += len(val)
	kick := s.pendingB >= s.opts.FlushBytes
	s.updateGaugesLocked()
	s.mu.Unlock()
	if kick {
		select {
		case s.flushKick <- struct{}{}:
		default:
		}
	}
	return nil
}

// Get returns the stored value for key. ok is false on a clean miss;
// err is non-nil when the record exists but can no longer be read back
// verifiably (I/O error or checksum failure) — the caller should treat
// that as a miss and recompute, never serve unverified bytes. The value
// is the caller's own: a copy of a pending write (whose backing array the
// flusher still holds), or a slice of the buffer this call read the
// frame into and hands to nobody else — one allocation of the record's
// size per disk hit, not two.
func (s *Store) Get(key string) (val []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if v, ok := s.pending[key]; ok {
		return append([]byte(nil), v...), true, nil
	}
	r, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	seg := s.segs[r.seg]
	if seg == nil {
		return nil, false, fmt.Errorf("store: index references missing segment %d", r.seg)
	}
	buf := make([]byte, r.n)
	if _, rerr := seg.f.ReadAt(buf, r.off); rerr != nil {
		s.mReadErrors.Add(1)
		return nil, false, fmt.Errorf("store: reading %s @%d: %w", segName(r.seg), r.off, rerr)
	}
	payload, _, derr := recovery.DecodeFrame(buf)
	if derr != nil {
		// The frame verified at scan time but fails now: on-disk rot.
		// Typed error, never wrong bytes.
		s.mReadErrors.Add(1)
		return nil, false, fmt.Errorf("store: record for %q rotted on disk: %w", key, derr)
	}
	k, v, perr := decodeRecord(payload)
	if perr != nil || k != key {
		s.mReadErrors.Add(1)
		return nil, false, fmt.Errorf("store: record for %q decodes to key %q (%v)", key, k, perr)
	}
	return v, true, nil
}

// Close flushes pending writes, fsyncs, and releases the store.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return ErrClosed
	}
	s.stopping = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	ferr := s.flushLocked()
	if s.active != nil {
		if err := s.active.f.Sync(); err != nil && ferr == nil {
			ferr = err
		}
	}
	s.closed = true
	s.closeFiles()
	return ferr
}

// Abandon releases the store WITHOUT flushing pending writes — the
// in-process stand-in for kill -9 in crash tests. Unflushed points are
// lost (and simply recomputed later); flushed frames stay on disk for
// the next Open to recover.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return
	}
	s.stopping = true
	close(s.stop)
	s.closed = true
	s.closeFiles()
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.segs = map[int]*segment{}
	s.active = nil
}
