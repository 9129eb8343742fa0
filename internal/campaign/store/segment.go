package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"asyncio/internal/recovery"
)

// The write side: flushing the pending table into the active segment,
// rolling segments, and compaction.

// Flush appends every pending record to the active segment and updates
// the index. Auto-compacts when the dead-byte ratio warrants it.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	if s.deadB > s.opts.CompactMinDead && s.deadB > s.liveB {
		return s.compactLocked()
	}
	return nil
}

func (s *Store) flushLocked() error {
	if len(s.order) == 0 {
		return nil
	}
	for _, key := range s.order {
		val := s.pending[key]
		payload := encodeRecord(key, val)
		frame := recovery.AppendFrame(nil, payload)
		if err := s.rollIfNeededLocked(int64(len(frame))); err != nil {
			return err
		}
		seg := s.active
		if _, err := seg.f.WriteAt(frame, seg.size); err != nil {
			return fmt.Errorf("store: appending to %s: %w", segName(seg.id), err)
		}
		if old, ok := s.index[key]; ok {
			s.deadB += int64(old.n)
			s.liveB -= int64(old.n)
		}
		s.index[key] = ref{seg: seg.id, off: seg.size, n: len(frame)}
		seg.size += int64(len(frame))
		s.liveB += int64(len(frame))
		s.mFlushRecords.Add(1)
		s.mFlushBytes.Add(int64(len(frame)))
	}
	if s.opts.Fsync {
		if err := s.active.f.Sync(); err != nil {
			return fmt.Errorf("store: fsync %s: %w", segName(s.active.id), err)
		}
	}
	s.pending = make(map[string][]byte)
	s.order = s.order[:0]
	s.pendingB = 0
	s.updateGaugesLocked()
	return nil
}

// rollIfNeededLocked ensures there is an active segment with room for
// one more frame of the given size, creating or rolling as needed.
func (s *Store) rollIfNeededLocked(frameLen int64) error {
	if s.active != nil && (s.active.size == 0 || s.active.size+frameLen <= s.opts.SegmentBytes) {
		return nil
	}
	return s.openSegmentLocked(s.maxSegIDLocked() + 1)
}

// maxSegIDLocked returns the highest open segment id, 0 when none is.
func (s *Store) maxSegIDLocked() int {
	max := 0
	for id := range s.segs {
		if id > max {
			max = id
		}
	}
	return max
}

// openSegmentLocked creates (or reopens) segment id as the active one.
func (s *Store) openSegmentLocked(id int) error {
	path := filepath.Join(s.opts.Dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat segment: %w", err)
	}
	seg := &segment{id: id, f: f, size: st.Size()}
	s.segs[id] = seg
	s.active = seg
	return s.syncDir()
}

// syncDir fsyncs the store directory so segment creations and renames
// are themselves durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: dir sync: %w", err)
	}
	return nil
}

// Compact rewrites the live record set into one fresh segment and
// atomically replaces the old segments with it: write to a temp file,
// fsync, rename into place (with a segment id above every existing
// one, so last-write-wins replay prefers it even if a crash strands
// the old segments), then delete the superseded files. Pending writes
// are flushed first.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	newID := s.maxSegIDLocked() + 1
	var buf []byte
	newRefs := make(map[string]ref, len(keys))
	for _, k := range keys {
		r := s.index[k]
		seg := s.segs[r.seg]
		frame := make([]byte, r.n)
		if _, err := seg.f.ReadAt(frame, r.off); err != nil {
			return fmt.Errorf("store: compact read %s @%d: %w", segName(r.seg), r.off, err)
		}
		if _, _, err := recovery.DecodeFrame(frame); err != nil {
			return fmt.Errorf("store: compact found rotted record for %q: %w", k, err)
		}
		newRefs[k] = ref{seg: newID, off: int64(len(buf)), n: len(frame)}
		buf = append(buf, frame...)
	}

	tmp := filepath.Join(s.opts.Dir, "compact.tmp")
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact tmp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: compact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact fsync: %w", err)
	}
	final := filepath.Join(s.opts.Dir, segName(newID))
	if err := os.Rename(tmp, final); err != nil {
		f.Close()
		return fmt.Errorf("store: compact rename: %w", err)
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		return err
	}

	// The rename is the commit point; everything after is cleanup.
	old := s.segs
	s.segs = map[int]*segment{newID: {id: newID, f: f, size: int64(len(buf))}}
	s.active = s.segs[newID]
	s.index = newRefs
	s.liveB = int64(len(buf))
	s.deadB = 0
	for id, seg := range old {
		seg.f.Close()
		os.Remove(filepath.Join(s.opts.Dir, segName(id)))
	}
	s.mCompactions.Add(1)
	s.updateGaugesLocked()
	s.opts.Logf("store: compacted %d records (%d bytes) into %s", len(keys), len(buf), segName(newID))
	return nil
}

// flusher is the write-behind loop: flush on a cadence, early when the
// pending table grows past FlushBytes.
func (s *Store) flusher() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		case <-s.flushKick:
		}
		s.mu.Lock()
		if !s.closed {
			if err := s.flushLocked(); err != nil {
				s.opts.Logf("store: background flush: %v", err)
			}
		}
		s.mu.Unlock()
	}
}
