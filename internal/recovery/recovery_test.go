package recovery

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/vclock"
)

// Journal round trip: appended records decode back identically, with
// monotonically assigned sequence numbers.
func TestJournalRoundTrip(t *testing.T) {
	j := NewJournal(Cost{})
	recs := []Record{
		{Path: "/Step#0/x", ElemSize: 4, Runs: []Run{{0, 8}}, Payload: bytes.Repeat([]byte{1}, 32)},
		{Path: "/Step#0/y", ElemSize: 4, Runs: []Run{{8, 4}, {16, 4}}, Payload: bytes.Repeat([]byte{2}, 32)},
		{Path: "/Step#1/z", ElemSize: 8, Runs: []Run{{2, 3}}}, // no payload
	}
	for i := range recs {
		if err := j.Append(nil, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeJournal(j.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
		if r.Path != recs[i].Path || r.ElemSize != recs[i].ElemSize {
			t.Errorf("record %d header mismatch: %+v", i, r)
		}
		if len(r.Runs) != len(recs[i].Runs) {
			t.Errorf("record %d runs = %v", i, r.Runs)
		}
		if !bytes.Equal(r.Payload, recs[i].Payload) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
}

// Appends charge the writing process the modeled log cost.
func TestJournalAppendCharges(t *testing.T) {
	j := NewJournal(Cost{AppendLatency: time.Millisecond})
	clk := vclock.New()
	var elapsed time.Duration
	clk.Go("rank", func(p *vclock.Proc) {
		rec := Record{Path: "/d", ElemSize: 1, Runs: []Run{{0, 4}}, Payload: []byte{1, 2, 3, 4}}
		if err := j.Append(p, &rec); err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if elapsed != time.Millisecond {
		t.Fatalf("append charged %v, want 1ms", elapsed)
	}
}

// A truncated journal yields the records before the tear plus a typed
// error wrapping ErrCorruptJournal; a bit flip fails the checksum.
func TestDecodeJournalCorruption(t *testing.T) {
	j := NewJournal(Cost{})
	for i := 0; i < 3; i++ {
		rec := Record{Path: "/d", ElemSize: 4, Runs: []Run{{0, 2}}, Payload: bytes.Repeat([]byte{byte(i)}, 8)}
		if err := j.Append(nil, &rec); err != nil {
			t.Fatal(err)
		}
	}
	full := j.Bytes()

	trunc := full[:len(full)-5]
	recs, err := DecodeJournal(trunc)
	if len(recs) != 2 {
		t.Fatalf("truncated decode: %d records, want 2", len(recs))
	}
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("truncated decode error = %v, want ErrCorruptJournal", err)
	}
	var jerr *JournalError
	if !errors.As(err, &jerr) {
		t.Fatalf("error %T is not *JournalError", err)
	}

	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x80
	_, err = DecodeJournal(flipped)
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("bit-flipped decode error = %v, want ErrCorruptJournal", err)
	}

	if _, err := DecodeJournal(nil); err != nil {
		t.Fatalf("empty journal decode error = %v, want nil", err)
	}
}

// makeImage builds a small container with one 16-element float32
// dataset under /g/d and returns its store.
func makeImage(t *testing.T, payload []byte) *hdf5.MemStore {
	t.Helper()
	store := hdf5.NewMemStore()
	f, err := hdf5.Create(store)
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Root().CreateGroup(nil, "g")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := g.CreateDataset(nil, "d", hdf5.F32, hdf5.MustSimple(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		if err := ds.Write(nil, nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	return store
}

func journalOne(t *testing.T, rec Record) []byte {
	t.Helper()
	j := NewJournal(Cost{})
	if err := j.Append(nil, &rec); err != nil {
		t.Fatal(err)
	}
	return j.Bytes()
}

// Scan classifies: intact extent → committed; altered extent → torn
// (and replayed on request); missing dataset → lost; no payload →
// unverified.
func TestScanClassification(t *testing.T) {
	want := bytes.Repeat([]byte{0x11}, 64)

	t.Run("committed", func(t *testing.T) {
		store := makeImage(t, want)
		jb := journalOne(t, Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 16}}, Payload: want})
		rep := Scan(jb, store, ScanOptions{})
		if rep.Committed != 1 || rep.Torn != 0 || rep.Lost != 0 {
			t.Fatalf("got %s", rep.Summary())
		}
		if !rep.Clean() {
			t.Fatal("Clean() = false for a fully committed image")
		}
	})

	t.Run("torn-and-replayed", func(t *testing.T) {
		torn := append([]byte(nil), want...)
		for i := 32; i < 64; i++ {
			torn[i] = 0 // second half never reached the image
		}
		store := makeImage(t, torn)
		jb := journalOne(t, Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 16}}, Payload: want})

		rep := Scan(jb, store, ScanOptions{})
		if rep.Torn != 1 || rep.Replayed != 0 {
			t.Fatalf("no-replay scan: %s", rep.Summary())
		}
		if rep.Clean() {
			t.Fatal("Clean() = true with an unreplayed torn record")
		}

		rep = Scan(jb, store, ScanOptions{Replay: true})
		if rep.Torn != 1 || rep.Replayed != 1 {
			t.Fatalf("replay scan: %s", rep.Summary())
		}
		if !rep.Clean() {
			t.Fatal("Clean() = false after replay")
		}
		// The image now holds the journaled bytes.
		rep = Scan(jb, store, ScanOptions{})
		if rep.Committed != 1 {
			t.Fatalf("post-replay scan: %s", rep.Summary())
		}
	})

	t.Run("lost", func(t *testing.T) {
		store := makeImage(t, want)
		jb := journalOne(t, Record{Path: "/g/missing", ElemSize: 4, Runs: []Run{{0, 16}}, Payload: want})
		rep := Scan(jb, store, ScanOptions{Replay: true})
		if rep.Lost != 1 {
			t.Fatalf("got %s", rep.Summary())
		}
	})

	t.Run("unverified", func(t *testing.T) {
		store := makeImage(t, want)
		jb := journalOne(t, Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 16}}})
		rep := Scan(jb, store, ScanOptions{})
		if rep.Unverified != 1 {
			t.Fatalf("got %s", rep.Summary())
		}
	})

	t.Run("elem-size-mismatch", func(t *testing.T) {
		store := makeImage(t, want)
		jb := journalOne(t, Record{Path: "/g/d", ElemSize: 8, Runs: []Run{{0, 8}}, Payload: want})
		rep := Scan(jb, store, ScanOptions{})
		if rep.Lost != 1 {
			t.Fatalf("got %s", rep.Summary())
		}
	})

	t.Run("unopenable-image", func(t *testing.T) {
		store := hdf5.NewMemStore() // no superblock at all
		jb := journalOne(t, Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 16}}, Payload: want})
		rep := Scan(jb, store, ScanOptions{Replay: true})
		if rep.ImageError == "" || rep.Lost != 1 {
			t.Fatalf("got %s (image error %q)", rep.Summary(), rep.ImageError)
		}
	})
}

// Multi-run records verify and replay per run.
func TestScanMultiRunReplay(t *testing.T) {
	want := bytes.Repeat([]byte{0x22}, 64)
	store := makeImage(t, nil) // dataset exists, all zeros
	jb := journalOne(t, Record{
		Path:     "/g/d",
		ElemSize: 4,
		Runs:     []Run{{0, 4}, {8, 4}, {12, 4}},
		Payload:  bytes.Repeat([]byte{0x22}, 48),
	})
	rep := Scan(jb, store, ScanOptions{Replay: true})
	if rep.Torn != 1 || rep.Replayed != 1 {
		t.Fatalf("got %s", rep.Summary())
	}
	f, err := hdf5.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Root().OpenDataset(nil, "g/d")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := ds.Read(nil, nil, got); err != nil {
		t.Fatal(err)
	}
	for _, elems := range [][2]int{{0, 4}, {8, 4}, {12, 4}} {
		off, n := elems[0]*4, elems[1]*4
		if !bytes.Equal(got[off:off+n], want[off:off+n]) {
			t.Fatalf("elements [%d,+%d) not replayed", elems[0], elems[1])
		}
	}
	if !bytes.Equal(got[16:32], make([]byte, 16)) {
		t.Fatal("unjournaled elements [4,8) were overwritten by replay")
	}
}

// A torn journal tail still scans the intact prefix.
func TestScanTornJournalTail(t *testing.T) {
	want := bytes.Repeat([]byte{0x33}, 64)
	store := makeImage(t, want)
	j := NewJournal(Cost{})
	r1 := Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 16}}, Payload: want}
	r2 := Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 16}}, Payload: want}
	if err := j.Append(nil, &r1); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(nil, &r2); err != nil {
		t.Fatal(err)
	}
	jb := j.Bytes()
	rep := Scan(jb[:len(jb)-3], store, ScanOptions{})
	if rep.JournalError == "" {
		t.Fatal("JournalError empty for a torn log")
	}
	if rep.Committed != 1 {
		t.Fatalf("got %s", rep.Summary())
	}
}

// Reset truncates; appends after Reset restart cleanly.
func TestJournalReset(t *testing.T) {
	j := NewJournal(Cost{})
	rec := Record{Path: "/d", ElemSize: 1, Runs: []Run{{0, 1}}, Payload: []byte{9}}
	if err := j.Append(nil, &rec); err != nil {
		t.Fatal(err)
	}
	j.Reset()
	if n := len(j.Bytes()); n != 0 {
		t.Fatalf("%d bytes left after Reset", n)
	}
	if err := j.Append(nil, &rec); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeJournal(j.Bytes())
	if err != nil || len(recs) != 1 {
		t.Fatalf("decode after Reset: %d records, err %v", len(recs), err)
	}
}
