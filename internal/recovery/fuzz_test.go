package recovery

import (
	"bytes"
	"errors"
	"testing"

	"asyncio/internal/hdf5"
)

// FuzzDecodeJournal asserts the decoder's contract on arbitrary bytes:
// it never panics, and on failure it returns a typed *JournalError plus
// the valid record prefix. Any records it does return must re-encode to
// a journal that decodes to the same records (the codec is a fixed
// point on its own output).
func FuzzDecodeJournal(f *testing.F) {
	j := NewJournal(Cost{})
	j.Append(nil, &Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 8}}, Payload: bytes.Repeat([]byte{7}, 32)})
	j.Append(nil, &Record{Path: "/g/e", ElemSize: 8, Runs: []Run{{1, 2}, {5, 3}}})
	valid := j.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add([]byte{})
	f.Add([]byte("FRM1"))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	// Frames that checksum but whose bodies are not records: the body
	// parser, not the CRC, has to reject these.
	f.Add(AppendFrame(nil, []byte("not a journal record")))
	f.Add(AppendFrame(nil, append(appendBody(nil, &Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 1}}}), 0)))
	f.Add(AppendFrame(nil, appendBody(nil, &Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 1 << 63}, {0, 1 << 63}}})))
	f.Add(append(AppendFrame(nil, appendBody(nil, &Record{Seq: 1, Path: "/ok", ElemSize: 1, Runs: []Run{{0, 2}}, Payload: []byte{1, 2}})), valid...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeJournal(data)
		if err != nil {
			var jerr *JournalError
			if !errors.As(err, &jerr) {
				t.Fatalf("decode error %T is not *JournalError: %v", err, err)
			}
		}
		if len(recs) == 0 {
			return
		}
		j2 := NewJournal(Cost{})
		for i := range recs {
			r := recs[i]
			if err := j2.Append(nil, &r); err != nil {
				t.Fatalf("decoded record %d does not re-encode: %v", i, err)
			}
		}
		recs2, err := DecodeJournal(j2.Bytes())
		if err != nil {
			t.Fatalf("re-encoded journal does not decode: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip lost records: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i].Path != recs2[i].Path || recs[i].ElemSize != recs2[i].ElemSize ||
				len(recs[i].Runs) != len(recs2[i].Runs) || !bytes.Equal(recs[i].Payload, recs2[i].Payload) {
				t.Fatalf("record %d changed across round trip", i)
			}
		}
	})
}

// FuzzFrame fuzzes the one record codec both the journal and the point
// store sit on: decoding arbitrary bytes never panics and fails only
// with a typed *FrameError; whatever is appended decodes back exactly;
// and ResyncFrame only ever names an offset that decodes.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte("FRM1"), 0)
	f.Add(AppendFrame(nil, []byte("payload")), 1)
	f.Add(append([]byte("junk FRM1 junk"), AppendFrame(nil, nil)...), 3)
	torn := AppendFrame(AppendFrame(nil, []byte("first")), []byte("second"))
	f.Add(torn[:len(torn)-2], 0)

	f.Fuzz(func(t *testing.T, data []byte, from int) {
		if _, _, err := DecodeFrame(data); err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) || !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("decode error %T is not a typed *FrameError: %v", err, err)
			}
		}
		framed := AppendFrame(nil, data)
		got, n, err := DecodeFrame(framed)
		if err != nil || n != len(framed) || !bytes.Equal(got, data) {
			t.Fatalf("round trip: %d of %d bytes, err %v", n, len(framed), err)
		}
		if at := ResyncFrame(data, from); at >= 0 {
			if at < from || at >= len(data) {
				t.Fatalf("resync from %d returned %d (len %d)", from, at, len(data))
			}
			if _, _, err := DecodeFrame(data[at:]); err != nil {
				t.Fatalf("resync offset %d does not decode: %v", at, err)
			}
		}
	})
}

// FuzzRecoveryScan drives Scan with arbitrary journal bytes against
// both a valid image and a corrupted one: whatever the inputs, Scan
// must classify (never panic) and its counts must balance.
func FuzzRecoveryScan(f *testing.F) {
	payload := bytes.Repeat([]byte{0x44}, 64)
	j := NewJournal(Cost{})
	j.Append(nil, &Record{Path: "/g/d", ElemSize: 4, Runs: []Run{{0, 16}}, Payload: payload})
	j.Append(nil, &Record{Path: "/g/missing", ElemSize: 4, Runs: []Run{{0, 4}}, Payload: payload[:16]})
	valid := j.Bytes()
	f.Add(valid, 0, uint8(0))
	f.Add(valid, len(valid)/2, uint8(0x80))
	f.Add([]byte{}, 0, uint8(0))
	f.Add(valid[:len(valid)-7], 3, uint8(1))

	f.Fuzz(func(t *testing.T, jb []byte, flipAt int, flipBits uint8) {
		journal := append([]byte(nil), jb...)
		if len(journal) > 0 {
			journal[((flipAt%len(journal))+len(journal))%len(journal)] ^= flipBits
		}

		// A freshly built image, with the fuzzer also flipping a byte of
		// the stored container to model a torn write.
		store := hdf5.NewMemStore()
		func() {
			fh, err := hdf5.Create(store)
			if err != nil {
				t.Fatal(err)
			}
			g, err := fh.Root().CreateGroup(nil, "g")
			if err != nil {
				t.Fatal(err)
			}
			ds, err := g.CreateDataset(nil, "d", hdf5.F32, hdf5.MustSimple(16), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Write(nil, nil, payload); err != nil {
				t.Fatal(err)
			}
			if err := fh.Close(nil); err != nil {
				t.Fatal(err)
			}
		}()
		if n := store.Size(); n > 0 && flipBits != 0 {
			b := make([]byte, 1)
			off := int64(((int64(flipAt) % n) + n) % n)
			store.ReadAt(b, off)
			b[0] ^= flipBits
			store.WriteAt(b, off)
		}

		for _, replay := range []bool{false, true} {
			rep := Scan(journal, store, ScanOptions{Replay: replay})
			if rep == nil {
				t.Fatal("Scan returned nil report")
			}
			total := rep.Committed + rep.Torn + rep.Lost + rep.Unverified
			if total != len(rep.Outcomes) {
				t.Fatalf("counts %d do not match %d outcomes", total, len(rep.Outcomes))
			}
			if rep.Replayed > rep.Torn {
				t.Fatalf("replayed %d > torn %d", rep.Replayed, rep.Torn)
			}
			_ = rep.Summary()
			_ = rep.Clean()
		}
	})
}
