// Durability semantics for targets: a volatile write-back cache in
// front of the backing store, explicit flush barriers with modeled
// cost, and crash behavior that discards or tears un-flushed extents
// at the granularity the file system actually persists —
//
//   - GPFS writes back page-cache data in file-system blocks; a crash
//     leaves each in-flight block either wholly persisted or wholly
//     lost, and a block only partially covered by dirty data tears
//     (new bytes mixed with old within one block).
//   - Lustre stripes a file round-robin across OSTs and each OST's
//     client cache flushes independently; a crash keeps or loses the
//     dirty stripe units of each OST as a group, producing the
//     characteristic interleaved tearing across the file.
//
// DurableStore implements the same structural Store interface as
// hdf5.Store, so it slots under an hdf5.File unchanged; everything here
// is seeded and driven by virtual time, so crash outcomes replay
// byte-identically.
package pfs

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/vclock"
)

// Store is the byte store a DurableStore wraps — structurally identical
// to hdf5.Store so either package's implementations interchange without
// an import edge.
type Store interface {
	io.ReaderAt
	io.WriterAt
	Size() int64
	Truncate(int64) error
	Sync() error
}

// DurabilitySemantics selects the crash-tearing model.
type DurabilitySemantics int

const (
	// DurabilityGPFS tears at file-system block boundaries.
	DurabilityGPFS DurabilitySemantics = iota
	// DurabilityLustre tears at stripe boundaries, grouped per OST.
	DurabilityLustre
)

// DurabilityConfig parameterizes a DurableStore.
type DurabilityConfig struct {
	Semantics DurabilitySemantics
	// BlockSize is the GPFS write-back granule (Alpine uses 16 MiB).
	BlockSize int64
	// StripeSize and OSTs shape Lustre's round-robin unit→OST mapping.
	StripeSize int64
	OSTs       int
	// SurviveProb is the chance an in-flight unit (block, or one OST's
	// dirty stripes) reached stable storage before the crash.
	SurviveProb float64
	// FlushLatency is the fixed fsync barrier cost; FlushBandwidth
	// (bytes/s) adds a per-dirty-byte cost. Zero values charge nothing.
	FlushLatency   time.Duration
	FlushBandwidth float64
	// Seed drives the per-unit survival draws.
	Seed int64
}

// GPFSDurability returns the block-granular model with Alpine-like
// parameters.
func GPFSDurability(seed int64) DurabilityConfig {
	return DurabilityConfig{
		Semantics:      DurabilityGPFS,
		BlockSize:      16 << 20,
		SurviveProb:    0.5,
		FlushLatency:   500 * time.Microsecond,
		FlushBandwidth: 2e9,
		Seed:           seed,
	}
}

// LustreDurability returns the stripe/OST-granular model with
// Cori-scratch-like parameters.
func LustreDurability(seed int64, osts int) DurabilityConfig {
	if osts <= 0 {
		osts = 1
	}
	return DurabilityConfig{
		Semantics:      DurabilityLustre,
		StripeSize:     1 << 20,
		OSTs:           osts,
		SurviveProb:    0.5,
		FlushLatency:   300 * time.Microsecond,
		FlushBandwidth: 4e9,
		Seed:           seed,
	}
}

// unitSize returns the tearing granule.
func (c DurabilityConfig) unitSize() int64 {
	if c.Semantics == DurabilityLustre {
		if c.StripeSize > 0 {
			return c.StripeSize
		}
		return 1 << 20
	}
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return 16 << 20
}

// ErrCrashed is returned by store operations after a crash sealed the
// store; recovery reopens the backing image directly.
var ErrCrashed = errors.New("pfs: store crashed")

// dirtyExtent is one volatile byte range, payload included so a flush
// can materialize it into the base store.
type dirtyExtent struct {
	off  int64
	data []byte
}

// DurableStore is a volatile write-back cache over a base Store. Writes
// land in the cache and become durable only at Sync (or SyncOn, which
// also charges the modeled flush cost); Crash discards or tears
// whatever is still volatile.
type DurableStore struct {
	base    Store
	cfg     DurabilityConfig
	dirty   []dirtyExtent // sorted by off, non-overlapping
	nDirty  int64         // total volatile bytes
	size    int64         // logical extent (base may lag until flush)
	crashed bool

	crit *critpath.Recorder
}

// SetCrit attaches the critical-path recorder; charged fsync barriers
// record fsync-journal edges. Call once, before the run.
func (d *DurableStore) SetCrit(rec *critpath.Recorder) {
	if d == nil {
		return
	}
	d.crit = rec
}

// NewDurableStore wraps base with write-back durability semantics.
func NewDurableStore(base Store, cfg DurabilityConfig) *DurableStore {
	return &DurableStore{base: base, cfg: cfg, size: base.Size()}
}

// DirtyBytes returns the current volatile byte count.
func (d *DurableStore) DirtyBytes() int64 { return d.nDirty }

// WriteAt implements io.WriterAt: the bytes land in the volatile cache.
func (d *DurableStore) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative write offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if d.crashed {
		return 0, ErrCrashed
	}
	d.insert(off, p)
	if end := off + int64(len(p)); end > d.size {
		d.size = end
	}
	return len(p), nil
}

func (e dirtyExtent) end() int64 { return e.off + int64(len(e.data)) }

// insert writes [off, off+len(p)) into the sorted extent list,
// overwriting any overlap (last write wins, like a page cache). Only
// true overlaps are merged by copying; a write that starts where its
// predecessor ends extends that extent in place, so N sequential appends
// copy O(N) bytes, not O(N²). Extents left merely touching are joined by
// takeDirty, at Sync and Crash.
func (d *DurableStore) insert(off int64, p []byte) {
	end := off + int64(len(p))
	// The first extent ending past off is the first that can overlap.
	i := sort.Search(len(d.dirty), func(i int) bool { return d.dirty[i].end() > off })
	if i == len(d.dirty) || d.dirty[i].off >= end {
		d.nDirty += int64(len(p))
		if i > 0 && d.dirty[i-1].end() == off {
			d.dirty[i-1].data = append(d.dirty[i-1].data, p...)
		} else {
			d.dirty = slices.Insert(d.dirty, i, dirtyExtent{off: off, data: append([]byte(nil), p...)})
		}
		return
	}
	newOff, newData := off, append([]byte(nil), p...)
	j := i
	for ; j < len(d.dirty) && d.dirty[j].off < end; j++ {
		e := d.dirty[j]
		// Merge e into the new extent (new bytes win on overlap).
		d.nDirty -= int64(len(e.data))
		if e.off < newOff {
			newData = append(e.data[:newOff-e.off:newOff-e.off], newData...)
			newOff = e.off
		}
		if eEnd := e.end(); eEnd > end {
			newData = append(newData, e.data[int64(len(e.data))-(eEnd-end):]...)
			end = eEnd
		}
	}
	d.nDirty += int64(len(newData))
	d.dirty = slices.Replace(d.dirty, i, j, dirtyExtent{off: newOff, data: newData})
}

// takeDirty empties the cache and returns what it held, touching extents
// joined: a block covered by two adjacent writes is one extent's, which
// is what Crash's whole-unit test and the flush see.
func (d *DurableStore) takeDirty() (dirty []dirtyExtent, n int64) {
	for _, e := range d.dirty {
		if k := len(dirty); k > 0 && dirty[k-1].end() == e.off {
			dirty[k-1].data = append(dirty[k-1].data, e.data...)
		} else {
			dirty = append(dirty, e)
		}
	}
	n = d.nDirty
	d.dirty, d.nDirty = nil, 0
	return dirty, n
}

// ReadAt implements io.ReaderAt with read-your-writes visibility: base
// bytes overlaid by any volatile extents.
func (d *DurableStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative read offset %d", off)
	}
	if d.crashed {
		return 0, ErrCrashed
	}
	size := d.size
	if off >= size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > size {
		want = size - off
	}
	// Base first (EOF within the logical extent reads as zeros — the
	// base may not have been extended yet), then overlay.
	n, err := d.base.ReadAt(p[:want], off)
	if err != nil && err != io.EOF {
		return n, err
	}
	for i := int64(n); i < want; i++ {
		p[i] = 0
	}
	end := off + want
	i := sort.Search(len(d.dirty), func(i int) bool { return d.dirty[i].end() > off })
	for ; i < len(d.dirty) && d.dirty[i].off < end; i++ {
		e := d.dirty[i]
		from, to := e.off, e.end()
		if from < off {
			from = off
		}
		if to > end {
			to = end
		}
		copy(p[from-off:to-off], e.data[from-e.off:to-e.off])
	}
	if want < int64(len(p)) {
		return int(want), io.EOF
	}
	return int(want), nil
}

// Size returns the logical extent (volatile writes included).
func (d *DurableStore) Size() int64 { return d.size }

// Truncate sets the logical extent, dropping volatile bytes beyond it.
func (d *DurableStore) Truncate(n int64) error {
	if n < 0 {
		return fmt.Errorf("pfs: negative truncate %d", n)
	}
	if d.crashed {
		return ErrCrashed
	}
	d.size = n
	kept := d.dirty[:0]
	var total int64
	for _, e := range d.dirty {
		if e.off >= n {
			continue
		}
		if e.end() > n {
			e.data = e.data[:n-e.off]
		}
		kept = append(kept, e)
		total += int64(len(e.data))
	}
	d.dirty = kept
	d.nDirty = total
	return d.base.Truncate(n)
}

// Sync commits every volatile extent to the base store — the fsync
// barrier, without time cost (host-side callers). Simulation code uses
// SyncOn to charge the flush.
func (d *DurableStore) Sync() error { return d.syncCharged(nil) }

// SyncOn commits like Sync and charges p the modeled flush cost: the
// fixed barrier latency plus dirty-bytes over the flush bandwidth.
func (d *DurableStore) SyncOn(p *vclock.Proc) error { return d.syncCharged(p) }

func (d *DurableStore) syncCharged(p *vclock.Proc) error {
	if d.crashed {
		return ErrCrashed
	}
	dirty, nd := d.takeDirty()
	for _, e := range dirty {
		if _, err := d.base.WriteAt(e.data, e.off); err != nil {
			return fmt.Errorf("pfs: flush at %d: %w", e.off, err)
		}
	}
	if err := d.base.Sync(); err != nil {
		return err
	}
	if p != nil && (d.cfg.FlushLatency > 0 || d.cfg.FlushBandwidth > 0) {
		cost := d.cfg.FlushLatency
		if d.cfg.FlushBandwidth > 0 && nd > 0 {
			cost += time.Duration(float64(nd) / d.cfg.FlushBandwidth * float64(time.Second))
		}
		start := p.Now()
		p.Sleep(cost)
		d.crit.Record(critpath.Edge{
			Track: p.Name(), Cause: critpath.FsyncJournal, Subsystem: "pfs",
			Detail: "fsync", Start: start, End: p.Now(), Bytes: nd,
		})
	}
	return nil
}

// CrashExtentState classifies one extent of a crash report.
type CrashExtentState int

const (
	// ExtentFlushed reached stable storage despite the crash (its
	// write-back completed in time).
	ExtentFlushed CrashExtentState = iota
	// ExtentTorn was partially persisted: new bytes mixed with old
	// within a block/stripe unit.
	ExtentTorn
	// ExtentLost never reached stable storage.
	ExtentLost
)

// CrashExtent is one byte range's fate in a crash.
type CrashExtent struct {
	Off, Len int64
	State    CrashExtentState
}

// CrashReport enumerates what a crash did to the volatile cache.
type CrashReport struct {
	At         time.Duration
	Semantics  DurabilitySemantics
	DirtyBytes int64 // volatile at the instant of the crash
	Flushed    int64 // bytes that made it to stable storage anyway
	Torn       int64 // bytes persisted into partially-covered units
	Lost       int64
	Extents    []CrashExtent // unit-granular fates, sorted by offset
}

// Crash seals the store at virtual time at: every volatile extent is
// discarded, torn, or (racing write-back) persisted per the configured
// semantics, with seeded deterministic draws. Subsequent operations
// return ErrCrashed; the surviving image is read via Base. Idempotent —
// the first crash wins and later calls return a nil report.
func (d *DurableStore) Crash(at time.Duration) *CrashReport {
	if d.crashed {
		return nil
	}
	d.crashed = true
	dirty, nd := d.takeDirty()

	rep := &CrashReport{At: at, Semantics: d.cfg.Semantics, DirtyBytes: nd}
	unit := d.cfg.unitSize()
	for _, e := range dirty {
		end := e.end()
		for u := e.off / unit * unit; u < end; u += unit {
			from, to := u, u+unit
			if from < e.off {
				from = e.off
			}
			if to > end {
				to = end
			}
			full := from == u && to == u+unit
			if d.unitSurvives(u / unit) {
				if _, err := d.base.WriteAt(e.data[from-e.off:to-e.off], from); err != nil {
					// The base store failing mid-crash is a host error;
					// count the bytes lost and continue.
					full = false
					rep.addExtent(from, to-from, ExtentLost)
					rep.Lost += to - from
					continue
				}
				if full {
					rep.addExtent(from, to-from, ExtentFlushed)
					rep.Flushed += to - from
				} else {
					rep.addExtent(from, to-from, ExtentTorn)
					rep.Torn += to - from
				}
			} else {
				rep.addExtent(from, to-from, ExtentLost)
				rep.Lost += to - from
			}
		}
	}
	return rep
}

// addExtent appends an extent, merging runs of equal state.
func (r *CrashReport) addExtent(off, n int64, st CrashExtentState) {
	if k := len(r.Extents); k > 0 {
		last := &r.Extents[k-1]
		if last.State == st && last.Off+last.Len == off {
			last.Len += n
			return
		}
	}
	r.Extents = append(r.Extents, CrashExtent{Off: off, Len: n, State: st})
}

// unitSurvives decides, deterministically from the seed, whether the
// unit with the given index reached stable storage before the crash.
// GPFS draws per block; Lustre draws per OST, so every stripe unit on
// one OST shares a fate.
func (d *DurableStore) unitSurvives(unitIdx int64) bool {
	key := unitIdx
	if d.cfg.Semantics == DurabilityLustre {
		osts := int64(d.cfg.OSTs)
		if osts <= 0 {
			osts = 1
		}
		key = unitIdx % osts
	}
	return seededDraw(d.cfg.Seed, key) < d.cfg.SurviveProb
}

// seededDraw maps (seed, key) to a deterministic pseudo-uniform value
// in [0,1): FNV-1a with an xorshift-multiply finalizer, matching the
// injector's draw so schedules replay byte-identically.
func seededDraw(seed, key int64) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(uint64(seed) >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(uint64(key) >> (8 * i)))
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}
