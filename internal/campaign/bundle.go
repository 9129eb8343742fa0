package campaign

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
)

// A run-kind point payload is a bundle: the run's artifacts under their
// names, in one canonical byte encoding —
//
//	{"<name>":"<base64>","<name>":"<base64>",…}\n
//
// names strictly ascending (so unique), each a non-empty run of letters,
// digits, '.', '_' and '-'; values padded standard base64 with zero
// trailing bits; no whitespace, no escapes, exactly one newline after
// the brace. That is json.Marshal of a map[string][]byte plus '\n' — what
// stored records and ?format=bundle bodies have always held — but only
// this file writes or reads it, and it reads nothing json.Marshal could
// not have written: every accepted payload is the encoding of exactly
// one artifact set.

// Bundle artifact names for run-kind results.
const (
	ArtifactTrace    = "trace.csv"
	ArtifactMetrics  = "metrics.csv"
	ArtifactPerfetto = "perfetto.json"
	ArtifactCritPath = "critpath.json"
	ArtifactSummary  = "summary.txt"
)

// bundleB64 rejects what base64.StdEncoding lets through beyond '\r' and
// '\n' (which decodeArtifact catches): non-zero trailing bits.
var bundleB64 = base64.StdEncoding.Strict()

const b64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// b64Value maps a base64 digit to its six bits and every other byte to
// 0xff.
var b64Value = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := 0; i < len(b64Alphabet); i++ {
		t[b64Alphabet[i]] = byte(i)
	}
	return t
}()

// encodeBundle packs artifacts into the canonical encoding with one
// allocation. Names are the Artifact* constants; a nil artifact encodes
// as the empty one.
func encodeBundle(artifacts map[string][]byte) []byte {
	names := make([]string, 0, len(artifacts))
	size := len("{}\n")
	for name, a := range artifacts {
		names = append(names, name)
		size += len(`"":"",`) + len(name) + base64.StdEncoding.EncodedLen(len(a))
	}
	sort.Strings(names)
	out := append(make([]byte, 0, size), '{')
	for i, name := range names {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '"')
		out = append(out, name...)
		out = append(out, `":"`...)
		out = base64.StdEncoding.AppendEncode(out, artifacts[name])
		out = append(out, '"')
	}
	return append(out, "}\n"...)
}

// walkBundle is the one parser of the bundle grammar: it checks the
// braces, the terminator, every separator and every name, and hands each
// member — the name and its still-encoded value, both aliasing b — to
// visit in order. visit returns done to stop early; the members after
// that point are then not looked at. Values are only delimited here
// (bytes.IndexByte for the closing quote); what is between the quotes is
// visit's to check.
func walkBundle(b []byte, visit func(name, val []byte) (done bool, err error)) error {
	if len(b) < len("{}\n") || b[0] != '{' || b[len(b)-2] != '}' || b[len(b)-1] != '\n' {
		return errors.New("not wrapped in {…}\\n")
	}
	var prev []byte
	for b = b[1 : len(b)-2]; len(b) > 0; {
		if b[0] != '"' {
			return errors.New("member does not start with a quoted name")
		}
		n := bytes.IndexByte(b[1:], '"')
		if n < 0 {
			return errors.New("unterminated name")
		}
		name := b[1 : 1+n]
		if !validArtifactName(name) {
			return fmt.Errorf("invalid artifact name %q", truncate(name))
		}
		if bytes.Compare(name, prev) <= 0 {
			return fmt.Errorf("artifact %q out of order or repeated", name)
		}
		b = b[n+2:]
		if len(b) < 2 || b[0] != ':' || b[1] != '"' {
			return fmt.Errorf("artifact %q: name not followed by :\"", name)
		}
		n = bytes.IndexByte(b[2:], '"')
		if n < 0 {
			return fmt.Errorf("artifact %q: unterminated value", name)
		}
		done, err := visit(name, b[2:2+n])
		if done || err != nil {
			return err
		}
		if b = b[n+3:]; len(b) > 0 {
			if b[0] != ',' || len(b) == 1 {
				return fmt.Errorf("artifact %q: not followed by a member or the closing brace", name)
			}
			b = b[1:]
		}
		prev = name
	}
	return nil
}

// maxQuoted is the longest artifact name, and the most an error message
// quotes of an untrusted payload.
const maxQuoted = 64

func validArtifactName(name []byte) bool {
	for _, c := range name {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return 0 < len(name) && len(name) <= maxQuoted
}

func truncate[T string | []byte](b T) T {
	if len(b) > maxQuoted {
		return b[:maxQuoted]
	}
	return b
}

// validateBundle reports whether b is a canonical bundle, every base64
// digit included, in one pass and without allocating on success.
func validateBundle(b []byte) error {
	err := walkBundle(b, func(name, val []byte) (bool, error) {
		if !canonicalBase64(val) {
			return false, fmt.Errorf("artifact %q: value is not canonical base64", name)
		}
		return false, nil
	})
	if err != nil {
		return fmt.Errorf("campaign: invalid bundle: %w", err)
	}
	return nil
}

// canonicalBase64 reports whether v is what base64.StdEncoding.Encode
// emits for some input: whole quanta of digits, at most two '=' and only
// at the very end, the unused bits of the last digit zero.
func canonicalBase64(v []byte) bool {
	if len(v)%4 != 0 {
		return false
	}
	if len(v) == 0 {
		return true
	}
	n, spare := len(v), byte(0)
	if v[n-1] == '=' {
		n, spare = n-1, 0x03
		if v[n-1] == '=' {
			n, spare = n-1, 0x0f
		}
	}
	digits := v[:n]
	var bad byte
	for _, c := range digits {
		bad |= b64Value[c]
	}
	// A non-digit ORs in 0xff; digits stay below 0x40.
	return bad < 0x40 && b64Value[digits[len(digits)-1]]&spare == 0
}

// decodeArtifact decodes one member's value into a buffer of its own.
func decodeArtifact(name, val []byte) ([]byte, error) {
	out := make([]byte, bundleB64.DecodedLen(len(val)))
	n, err := bundleB64.Decode(out, val)
	if err == nil && bundleB64.EncodedLen(n) != len(val) {
		// encoding/base64 skips '\r' and '\n'; the grammar has neither.
		err = errors.New("line break inside base64")
	}
	if err != nil {
		return nil, fmt.Errorf("artifact %q: %w", name, err)
	}
	return out[:n], nil
}

// bundleArtifact returns one artifact of a bundle, base64-decoding that
// one value and nothing else: the members ahead of it are stepped over
// by their quotes, the ones after it never touched. ok is false when the
// bundle carries no such artifact. The payload as a whole is checked
// where it enters memory (ValidatePointPayload); this checks the walked
// prefix and the served value.
func bundleArtifact(payload []byte, name string) (artifact []byte, ok bool, err error) {
	err = walkBundle(payload, func(n, val []byte) (done bool, err error) {
		switch {
		case string(n) < name:
			return false, nil
		case string(n) == name:
			artifact, err = decodeArtifact(n, val)
			ok = err == nil
		}
		return true, err // names ascend: this is where name sorts, present or not
	})
	if err != nil {
		return nil, false, fmt.Errorf("campaign: decoding bundle: %w", err)
	}
	return artifact, ok, nil
}

// DecodeBundle unpacks a run-kind point payload into all its artifacts.
// The service itself never needs them all (see bundleArtifact); this is
// for callers that compare whole artifact sets.
func DecodeBundle(b []byte) (map[string][]byte, error) {
	m := make(map[string][]byte)
	err := walkBundle(b, func(name, val []byte) (bool, error) {
		a, err := decodeArtifact(name, val)
		m[string(name)] = a
		return false, err
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: decoding bundle: %w", err)
	}
	return m, nil
}
