package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"asyncio/internal/metrics"
)

// testOptions disables the background cadence so tests drive flushes
// explicitly and deterministically.
func testOptions(dir string) Options {
	return Options{Dir: dir, FlushEvery: time.Hour, Logf: func(string, ...any) {}}
}

func mustOpen(t *testing.T, opts Options) (*Store, *RecoveryReport) {
	t.Helper()
	s, rep, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rep
}

func mustGet(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get(%q) = ok=%v err=%v", key, ok, err)
	}
	return v
}

// TestEmptyDir pins the cold-start path: an empty (or absent) store dir
// opens cleanly with an all-zero report.
func TestEmptyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-yet-created")
	s, rep := mustOpen(t, testOptions(dir))
	if !rep.Clean() || rep.Segments != 0 || rep.Records != 0 || rep.Points != 0 {
		t.Fatalf("empty dir report: %s", rep.Summary())
	}
	if _, ok, err := s.Get("missing"); ok || err != nil {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	if n := s.Stats().Points; n != 0 {
		t.Fatalf("points = %d", n)
	}
}

func TestMissingDirOption(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}

// TestPutGetFlushRestart is the basic durability loop: write-behind Put
// is readable immediately, survives a flush, and survives a restart.
func TestPutGetFlushRestart(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, testOptions(dir))
	vals := map[string][]byte{
		"a/0": []byte("alpha"),
		"b/1": bytes.Repeat([]byte{0xEE}, 4096),
		"c/2": {}, // empty value is legal
	}
	for k, v := range vals {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Pending reads hit before any flush.
	for k, v := range vals {
		if got := mustGet(t, s, k); !bytes.Equal(got, v) {
			t.Fatalf("pending Get(%q) mismatch", k)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean recovery is told once, by the report: the caller (the
	// daemon) prints its Summary, so the store logs nothing of its own.
	opts := testOptions(dir)
	var logged []string
	opts.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	s2, rep := mustOpen(t, opts)
	if !rep.Clean() || rep.Points != len(vals) {
		t.Fatalf("restart report: %s", rep.Summary())
	}
	if len(logged) != 0 {
		t.Fatalf("clean recovery logged %q", logged)
	}
	for k, v := range vals {
		if got := mustGet(t, s2, k); !bytes.Equal(got, v) {
			t.Fatalf("restart Get(%q) mismatch", k)
		}
	}
}

// TestCloseFlushesPending pins that a graceful Close persists what the
// flusher had not gotten to yet.
func TestCloseFlushesPending(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, testOptions(dir))
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, testOptions(dir))
	if rep.Points != 1 {
		t.Fatalf("report after close: %s", rep.Summary())
	}
	if got := mustGet(t, s2, "k"); string(got) != "v" {
		t.Fatalf("Get after close = %q", got)
	}
}

// TestAbandonLosesOnlyPending: the kill -9 stand-in drops unflushed
// writes but never flushed ones.
func TestAbandonLosesOnlyPending(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, testOptions(dir))
	s.Put("flushed", []byte("durable"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Put("pending", []byte("volatile"))
	s.Abandon()
	if err := s.Put("x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Abandon: %v", err)
	}

	s2, rep := mustOpen(t, testOptions(dir))
	if !rep.Clean() {
		t.Fatalf("abandon left damage: %s", rep.Summary())
	}
	if got := mustGet(t, s2, "flushed"); string(got) != "durable" {
		t.Fatalf("flushed key = %q", got)
	}
	if _, ok, _ := s2.Get("pending"); ok {
		t.Fatal("unflushed key survived a crash")
	}
}

// TestTruncatedTailRecord pins the classic kill -9 shape: a partial
// final frame is quarantined as a torn tail, healed by truncation, and
// the next restart scans clean.
func TestTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, testOptions(dir))
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(1))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	s2, rep := mustOpen(t, testOptions(dir))
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined %d ranges, want 1: %s", len(rep.Quarantined), rep.Summary())
	}
	q := rep.Quarantined[0]
	if !q.Tail || !errors.Is(q, ErrCorrupt) {
		t.Fatalf("tail damage verdict: %+v", q)
	}
	if rep.Healed != "truncated torn tail" {
		t.Fatalf("healed = %q", rep.Healed)
	}
	if rep.Points != 2 {
		t.Fatalf("recovered %d points, want 2", rep.Points)
	}
	for i := 0; i < 2; i++ {
		if got := mustGet(t, s2, fmt.Sprintf("k%d", i)); !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 100)) {
			t.Fatalf("k%d mismatch after torn-tail recovery", i)
		}
	}
	if _, ok, _ := s2.Get("k2"); ok {
		t.Fatal("torn record served")
	}
	// The damaged bytes are preserved for post-mortem.
	qfiles, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(qfiles) == 0 {
		t.Fatalf("no quarantine files: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Healed: the third restart scans clean.
	_, rep3 := mustOpen(t, testOptions(dir))
	if !rep3.Clean() || rep3.Points != 2 {
		t.Fatalf("post-heal restart not clean: %s", rep3.Summary())
	}
}

// TestMidSegmentCorruptionResync flips a byte inside an interior
// record: the scanner must quarantine exactly that record, resync, and
// keep every other record — then heal by compaction.
func TestMidSegmentCorruptionResync(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, testOptions(dir))
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{0x40 + byte(i)}, 200))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Middle record's payload: each frame is identical length, flip a
	// byte well inside the second one.
	frameLen := len(b) / 3
	b[frameLen+frameLen/2] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rep := mustOpen(t, testOptions(dir))
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Tail {
		t.Fatalf("mid-segment verdicts: %s", rep.Summary())
	}
	if rep.Healed != "compacted damaged segments" {
		t.Fatalf("healed = %q", rep.Healed)
	}
	if rep.Points != 2 {
		t.Fatalf("recovered %d points, want 2", rep.Points)
	}
	for _, i := range []int{0, 2} {
		if got := mustGet(t, s2, fmt.Sprintf("k%d", i)); !bytes.Equal(got, bytes.Repeat([]byte{0x40 + byte(i)}, 200)) {
			t.Fatalf("k%d mismatch after resync recovery", i)
		}
	}
	if _, ok, _ := s2.Get("k1"); ok {
		t.Fatal("corrupt record served")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep3 := mustOpen(t, testOptions(dir))
	if !rep3.Clean() || rep3.Points != 2 {
		t.Fatalf("post-heal restart not clean: %s", rep3.Summary())
	}
}

// TestDuplicateKeysAcrossSegments pins last-write-wins replay: a tiny
// segment size forces rolls, the same key is written in two segments,
// and recovery must serve the later value.
func TestDuplicateKeysAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.SegmentBytes = 64 // every flush of a 100-byte value rolls
	opts.CompactMinDead = 1 << 40
	s, _ := mustOpen(t, opts)
	s.Put("k", bytes.Repeat([]byte{1}, 100))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Put("other", bytes.Repeat([]byte{9}, 100))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Put("k", bytes.Repeat([]byte{2}, 100))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ids, err := segmentIDs(dir)
	if err != nil || len(ids) < 2 {
		t.Fatalf("wanted multiple segments, got %v (%v)", ids, err)
	}

	s2, rep := mustOpen(t, opts)
	if rep.Superseded != 1 {
		t.Fatalf("superseded = %d, want 1 (%s)", rep.Superseded, rep.Summary())
	}
	if rep.Points != 2 {
		t.Fatalf("points = %d, want 2", rep.Points)
	}
	if got := mustGet(t, s2, "k"); !bytes.Equal(got, bytes.Repeat([]byte{2}, 100)) {
		t.Fatal("last-write-wins violated: recovered the earlier duplicate")
	}
}

// TestCompaction pins the atomic-rename rewrite: duplicates collapse to
// one segment, every live value survives, and a restart agrees.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.SegmentBytes = 256
	opts.CompactMinDead = 1 << 40 // no auto-compact; the test drives it
	s, _ := mustOpen(t, opts)
	want := map[string][]byte{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			k := fmt.Sprintf("k%d", i)
			v := bytes.Repeat([]byte{byte(round*16 + i)}, 64)
			s.Put(k, v)
			want[k] = v
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	ids, err := segmentIDs(dir)
	if err != nil || len(ids) != 1 {
		t.Fatalf("segments after compaction: %v (%v)", ids, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "compact.tmp")); !os.IsNotExist(err) {
		t.Fatalf("compact.tmp left behind: %v", err)
	}
	for k, v := range want {
		if got := mustGet(t, s, k); !bytes.Equal(got, v) {
			t.Fatalf("%s mismatch after compaction", k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, opts)
	if !rep.Clean() || rep.Points != len(want) || rep.Superseded != 0 {
		t.Fatalf("post-compaction restart: %s", rep.Summary())
	}
	for k, v := range want {
		if got := mustGet(t, s2, k); !bytes.Equal(got, v) {
			t.Fatalf("%s mismatch after compaction restart", k)
		}
	}
}

// TestAutoCompaction: overwriting the working set past the dead-byte
// threshold compacts without being asked.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CompactMinDead = 128
	s, _ := mustOpen(t, opts)
	reg := metrics.NewRegistryWithNow(func() time.Duration { return 0 })
	s.Instrument(reg)
	for round := 0; round < 4; round++ {
		s.Put("k", bytes.Repeat([]byte{byte(round)}, 300))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if c := reg.FindCounter("campaign.store.compactions"); c.Value() == 0 {
		t.Fatal("no auto-compaction despite dead bytes exceeding live")
	}
	if got := mustGet(t, s, "k"); !bytes.Equal(got, bytes.Repeat([]byte{3}, 300)) {
		t.Fatal("value lost across auto-compaction")
	}
}

// TestInterruptedCompactionTemp: a leftover compact.tmp (crash before
// the rename commit point) is discarded and the old segments win.
func TestInterruptedCompactionTemp(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, testOptions(dir))
	s.Put("k", []byte("committed"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "compact.tmp"), []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, testOptions(dir))
	if !rep.Clean() {
		t.Fatalf("tmp file treated as damage: %s", rep.Summary())
	}
	if got := mustGet(t, s2, "k"); string(got) != "committed" {
		t.Fatalf("k = %q", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "compact.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale compact.tmp not removed")
	}
}

// TestReadTimeRotDetected: a record that verified at scan time but is
// damaged afterwards returns a typed error on Get — never wrong bytes.
func TestReadTimeRotDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, testOptions(dir))
	s.Put("k", bytes.Repeat([]byte{7}, 512))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file behind the open store's back.
	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s.Get("k"); err == nil {
		t.Fatalf("rotted record served: ok=%v val=%d bytes", ok, len(v))
	}
}

// TestFsyncSmoke exercises the fsync-on-flush path end to end.
func TestFsyncSmoke(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.Fsync = true
	s, _ := mustOpen(t, opts)
	s.Put("k", []byte("synced"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := mustOpen(t, opts)
	if got := mustGet(t, s2, "k"); string(got) != "synced" {
		t.Fatalf("k = %q", got)
	}
}

// TestWriteBehindFlusher: with a real cadence, a Put becomes durable
// without any explicit Flush call.
func TestWriteBehindFlusher(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.FlushEvery = time.Millisecond
	s, _ := mustOpen(t, opts)
	s.Put("k", []byte("behind"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.PendingBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never drained the pending table")
		}
		time.Sleep(time.Millisecond)
	}
	s.Abandon() // crash: pending already flushed, so nothing is lost
	s2, _ := mustOpen(t, testOptions(dir))
	if got := mustGet(t, s2, "k"); string(got) != "behind" {
		t.Fatalf("k = %q", got)
	}
}

// TestInstrumentCounters pins the metric names the service dashboards
// and CI grep for.
func TestInstrumentCounters(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, testOptions(dir))
	reg := metrics.NewRegistryWithNow(func() time.Duration { return 0 })
	s.Instrument(reg)
	s.Put("k", []byte("v"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := reg.FindCounter("campaign.store.flush.records"); c == nil || c.Value() != 1 {
		t.Fatalf("flush.records = %v", c.Value())
	}
	if g := reg.FindGauge("campaign.store.points"); g == nil || g.Value() != 1 {
		t.Fatal("points gauge not maintained")
	}
}
