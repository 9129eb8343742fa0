package pfs

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/vclock"
)

func smallGPFS(seed int64) DurabilityConfig {
	cfg := GPFSDurability(seed)
	cfg.BlockSize = 16 // tiny blocks so small tests span multiple units
	return cfg
}

// Writes stay in the volatile cache — invisible to the base — until a
// sync barrier, while reads see them immediately (read-your-writes).
func TestDurableStoreWriteBackVisibility(t *testing.T) {
	base := hdf5.NewMemStore()
	d := NewDurableStore(base, smallGPFS(1))
	data := []byte("hello, crash consistency")
	if _, err := d.WriteAt(data, 10); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtyBytes(); got != int64(len(data)) {
		t.Fatalf("DirtyBytes = %d, want %d", got, len(data))
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read-your-writes: got %q", got)
	}
	if base.Size() != 0 {
		t.Fatalf("base grew to %d bytes before any sync", base.Size())
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtyBytes(); got != 0 {
		t.Fatalf("DirtyBytes after Sync = %d, want 0", got)
	}
	bgot := make([]byte, len(data))
	if _, err := base.ReadAt(bgot, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bgot, data) {
		t.Fatalf("base after Sync: got %q", bgot)
	}
}

// Overlapping writes merge last-write-wins, and the gap between sparse
// extents reads back as zeros (EOF gap fill within the logical size).
func TestDurableStoreOverlapAndGaps(t *testing.T) {
	d := NewDurableStore(hdf5.NewMemStore(), smallGPFS(1))
	if _, err := d.WriteAt([]byte("aaaa"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("bb"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("cc"), 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := []byte("aabb\x00\x00\x00\x00cc")
	if !bytes.Equal(got, want) {
		t.Fatalf("read = %q, want %q", got, want)
	}
	if n := d.DirtyBytes(); n != 6 {
		t.Fatalf("DirtyBytes = %d, want 6 (merged 4 + separate 2)", n)
	}
}

// SyncOn charges the flushing process latency plus dirty-bytes over
// bandwidth; a clean store charges only the latency floor.
func TestDurableStoreSyncChargesProc(t *testing.T) {
	cfg := smallGPFS(1)
	cfg.FlushLatency = time.Millisecond
	cfg.FlushBandwidth = 1000 // 1000 B/s: 500 bytes = 500 ms
	d := NewDurableStore(hdf5.NewMemStore(), cfg)
	if _, err := d.WriteAt(make([]byte, 500), 0); err != nil {
		t.Fatal(err)
	}
	clk := vclock.New()
	var elapsed time.Duration
	clk.Go("flusher", func(p *vclock.Proc) {
		start := p.Now()
		if err := d.SyncOn(p); err != nil {
			t.Error(err)
		}
		elapsed = p.Now() - start
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	want := time.Millisecond + 500*time.Millisecond
	if elapsed != want {
		t.Fatalf("flush charged %v, want %v", elapsed, want)
	}
}

// A crash tears the dirty cache at block granularity: each block
// survives or dies by its seeded draw, full surviving blocks are
// flushed, partially-covered surviving blocks are torn, and the base
// image shows exactly the surviving bytes.
func TestDurableStoreCrashGPFSTearing(t *testing.T) {
	base := hdf5.NewMemStore()
	cfg := smallGPFS(42)
	d := NewDurableStore(base, cfg)
	// 5 blocks of 16 bytes, written as one 76-byte extent starting at 2:
	// block 0 partial, blocks 1..3 full, block 4 partial.
	data := bytes.Repeat([]byte{0xAB}, 76)
	if _, err := d.WriteAt(data, 2); err != nil {
		t.Fatal(err)
	}
	rep := d.Crash(3 * time.Second)
	if rep == nil {
		t.Fatal("Crash returned nil on first call")
	}
	if rep.DirtyBytes != 76 {
		t.Fatalf("DirtyBytes = %d, want 76", rep.DirtyBytes)
	}
	if rep.Flushed+rep.Torn+rep.Lost != 76 {
		t.Fatalf("flushed %d + torn %d + lost %d != 76", rep.Flushed, rep.Torn, rep.Lost)
	}
	// Replay the decision per unit and check the base byte-for-byte.
	for u := int64(0); u < 5; u++ {
		blockStart := u * 16
		from, to := blockStart, blockStart+16
		if from < 2 {
			from = 2
		}
		if to > 78 {
			to = 78
		}
		got := make([]byte, to-from)
		_, err := base.ReadAt(got, from)
		survived := d.unitSurvives(u)
		if survived {
			if err != nil {
				t.Fatalf("block %d survived but base read failed: %v", u, err)
			}
			if !bytes.Equal(got, data[:to-from]) {
				t.Fatalf("block %d survived but bytes differ", u)
			}
		} else {
			for _, b := range got {
				if b == 0xAB && err == nil {
					t.Fatalf("block %d lost but its bytes reached the base", u)
				}
			}
		}
	}
	// Determinism: an identical store crashes identically.
	base2 := hdf5.NewMemStore()
	d2 := NewDurableStore(base2, cfg)
	if _, err := d2.WriteAt(data, 2); err != nil {
		t.Fatal(err)
	}
	rep2 := d2.Crash(3 * time.Second)
	if rep.Flushed != rep2.Flushed || rep.Torn != rep2.Torn || rep.Lost != rep2.Lost {
		t.Fatalf("crash not deterministic: %+v vs %+v", rep, rep2)
	}
}

// Lustre semantics: all stripe units on one OST share a fate, so with
// one OST the whole cache lives or dies together.
func TestDurableStoreCrashLustreSharedFate(t *testing.T) {
	cfg := LustreDurability(7, 1)
	cfg.StripeSize = 16
	base := hdf5.NewMemStore()
	d := NewDurableStore(base, cfg)
	if _, err := d.WriteAt(bytes.Repeat([]byte{1}, 64), 0); err != nil {
		t.Fatal(err)
	}
	rep := d.Crash(0)
	if rep.Flushed != 0 && rep.Flushed != 64 {
		t.Fatalf("one OST must flush all or nothing, got %d of 64", rep.Flushed)
	}
	if rep.Torn != 0 {
		t.Fatalf("aligned full-stripe writes cannot tear, got %d torn", rep.Torn)
	}
}

// After a crash the store is sealed.
func TestDurableStoreSealedAfterCrash(t *testing.T) {
	d := NewDurableStore(hdf5.NewMemStore(), smallGPFS(1))
	if _, err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if rep := d.Crash(0); rep == nil {
		t.Fatal("first Crash returned nil")
	}
	if rep := d.Crash(0); rep != nil {
		t.Fatal("second Crash returned a report; want nil (idempotent)")
	}
	if _, err := d.WriteAt([]byte{2}, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("WriteAt after crash = %v, want ErrCrashed", err)
	}
	buf := make([]byte, 1)
	if _, err := d.ReadAt(buf, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ReadAt after crash = %v, want ErrCrashed", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync after crash = %v, want ErrCrashed", err)
	}
}

// The durable store satisfies the hdf5 container contract end to end: a
// file written through it, synced, and crashed reopens from the base.
func TestDurableStoreBacksContainer(t *testing.T) {
	base := hdf5.NewMemStore()
	d := NewDurableStore(base, smallGPFS(3))
	f, err := hdf5.Create(d)
	if err != nil {
		t.Fatal(err)
	}
	space := hdf5.MustSimple(8)
	ds, err := f.Root().CreateDataset(nil, "x", hdf5.F32, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 32)
	if err := ds.Write(nil, nil, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(nil); err != nil { // flushes metadata AND syncs the store
		t.Fatal(err)
	}
	d.Crash(0) // nothing dirty: crash must not damage synced state
	f2, err := hdf5.Open(base)
	if err != nil {
		t.Fatalf("reopening synced image: %v", err)
	}
	ds2, err := f2.Root().OpenDataset(nil, "x")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	if err := ds2.Read(nil, nil, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("synced dataset bytes differ after crash + reopen")
	}
}

// appendCost is the bytes the store allocates per write over n sequential
// 4 KiB appends — a count, not a timing, so it repeats exactly.
func appendCost(n int) float64 {
	d := NewDurableStore(hdf5.NewNullStore(), GPFSDurability(1))
	chunk := make([]byte, 4<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		d.WriteAt(chunk, int64(i)*int64(len(chunk)))
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// Sequential appends extend the touching extent in place: a write costs
// the same whether it is the 256th or the 4,096th. Merging by re-copying
// the accumulated head made it grow with the file (16× here).
func TestDurableStoreAppendsAreLinear(t *testing.T) {
	short, long := appendCost(256), appendCost(4096)
	if long > 2*short {
		t.Fatalf("an append allocates %.0f bytes over 4,096 writes, %.0f over 256: want within 2x", long, short)
	}
}

// Extents that only touch are kept apart until Sync or Crash joins them:
// a block filled by two adjacent writes, second half first, must still
// count as wholly covered — flushed, not torn — and flush as one write.
func TestDurableStoreTouchingExtentsCoalesce(t *testing.T) {
	cfg := smallGPFS(1)
	cfg.SurviveProb = 1
	base := hdf5.NewMemStore()
	d := NewDurableStore(base, cfg)
	d.WriteAt(bytes.Repeat([]byte("b"), 8), 8)
	d.WriteAt(bytes.Repeat([]byte("a"), 8), 0)
	d.WriteAt(bytes.Repeat([]byte("c"), 16), 16)
	if n := d.DirtyBytes(); n != 32 {
		t.Fatalf("DirtyBytes = %d, want 32", n)
	}
	rep := d.Crash(0)
	want := []CrashExtent{{Off: 0, Len: 32, State: ExtentFlushed}}
	if !reflect.DeepEqual(rep.Extents, want) || rep.Torn != 0 {
		t.Fatalf("crash over touching extents: %+v (torn %d), want %+v", rep.Extents, rep.Torn, want)
	}
	got := make([]byte, 32)
	if _, err := base.ReadAt(got, 0); err != nil || string(got) != "aaaaaaaabbbbbbbbcccccccccccccccc" {
		t.Fatalf("surviving image %q, %v", got, err)
	}
}
