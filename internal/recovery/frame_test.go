package recovery

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1000),
		[]byte("FRM1FRM1FRM1"), // payload that contains the magic
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	off := 0
	for i, p := range payloads {
		got, n, err := DecodeFrame(buf[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(p)+frameOverhead {
			t.Fatalf("frame %d: length %d, want %d", i, n, len(p)+frameOverhead)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

// TestFrameDetectsEveryFlip flips every single byte of an encoded frame
// in turn: each mutation must be rejected (bad magic, bad length, or
// checksum mismatch) — never decoded as a different payload.
func TestFrameDetectsEveryFlip(t *testing.T) {
	orig := AppendFrame(nil, []byte("the quick brown fox"))
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x01
		got, _, err := DecodeFrame(mut)
		if err == nil {
			t.Fatalf("flip at byte %d went undetected (payload %q)", i, got)
		}
		var fe *FrameError
		if !errors.As(err, &fe) || !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at byte %d: error %T not a typed *FrameError", i, err)
		}
	}
}

// TestFrameTruncation decodes every proper prefix of a frame; all must
// fail with a typed error, never panic or return a payload.
func TestFrameTruncation(t *testing.T) {
	orig := AppendFrame(nil, bytes.Repeat([]byte{7}, 64))
	for n := 0; n < len(orig); n++ {
		if _, _, err := DecodeFrame(orig[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(orig))
		}
	}
}

func TestResyncFrame(t *testing.T) {
	a := AppendFrame(nil, []byte("first"))
	b := AppendFrame(nil, []byte("second"))
	garbage := append([]byte("FRM1 lookalike garbage \x00\x01\x02"), 0x46, 0x52, 0x4D, 0x31)
	buf := append(append(append([]byte(nil), a...), garbage...), b...)

	// Corrupt the first frame: resync must skip the garbage (including
	// the embedded magic bytes that do not open a valid frame) and land
	// exactly on the second frame.
	buf[2] ^= 0xFF
	if _, _, err := DecodeFrame(buf); err == nil {
		t.Fatal("corrupted first frame decoded")
	}
	at := ResyncFrame(buf, 1)
	want := len(a) + len(garbage)
	if at != want {
		t.Fatalf("resync at %d, want %d", at, want)
	}
	got, _, err := DecodeFrame(buf[at:])
	if err != nil || string(got) != "second" {
		t.Fatalf("resynced frame: %q, %v", got, err)
	}

	if at := ResyncFrame([]byte("no frames here"), 0); at != -1 {
		t.Fatalf("resync in garbage returned %d", at)
	}
}
