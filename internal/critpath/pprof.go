// pprof export: the profile's critical-path attribution rendered in
// the pprof protobuf format (gzipped profile.proto), so `go tool
// pprof` and flamegraph viewers work on simulator output directly.
// Each attribution row becomes one sample with the synthetic stack
// track → subsystem → category (leaf first, so flamegraphs root at the
// blame category) and the attributed virtual nanoseconds as its value.
//
// The encoder is hand-rolled — profile.proto needs only varints and
// length-delimited fields, and taking a protobuf dependency for one
// writer is not worth it. Output is deterministic: rows arrive in the
// profile's canonical order and the gzip header carries no mtime.
package critpath

import (
	"compress/gzip"
	"io"
	"time"
)

// WritePprof writes the profile in pprof's gzipped protobuf format.
func (p *Profile) WritePprof(w io.Writer) error {
	zw := gzip.NewWriter(w)
	// The default header (zero ModTime, unset OS) encodes mtime 0 and
	// OS 255, so the compressed bytes are a pure function of the payload.
	if _, err := zw.Write(encodePprof(p)); err != nil {
		return err
	}
	return zw.Close()
}

// pprof profile.proto field numbers (only the ones emitted).
const (
	profSampleType   = 1
	profSample       = 2
	profLocation     = 4
	profFunction     = 5
	profStringTable  = 6
	profDurationNs   = 10
	profPeriodType   = 11
	profPeriod       = 12
	vtType           = 1
	vtUnit           = 2
	sampleLocationID = 1
	sampleValue      = 2
	locID            = 1
	locLine          = 4
	lineFunctionID   = 1
	funcID           = 1
	funcName         = 2
)

// encodePprof builds the uncompressed profile.proto message.
func encodePprof(p *Profile) []byte {
	st := newStrtab()
	typeIdx := st.index("critical-path")
	unitIdx := st.index("nanoseconds")

	// One function+location per unique frame string, ids assigned in
	// first-use order over the canonical attribution rows.
	frameID := map[string]uint64{}
	var frames []string
	frame := func(s string) uint64 {
		if id, ok := frameID[s]; ok {
			return id
		}
		id := uint64(len(frames) + 1)
		frameID[s] = id
		frames = append(frames, s)
		st.index(s)
		return id
	}

	var samples []byte
	for _, row := range p.Attribution {
		sub := row.Subsystem
		if sub == "" {
			sub = "(none)"
		}
		locs := []uint64{
			frame("track:" + row.Track),
			frame("subsystem:" + sub),
			frame(string(row.Cause)),
		}
		var sm enc
		sm.packedUvarints(sampleLocationID, locs)
		sm.packedVarints(sampleValue, []int64{int64(row.Seconds * float64(time.Second))})
		samples = appendMsg(samples, profSample, sm.buf)
	}

	var out enc
	var vt enc
	vt.varintField(vtType, int64(typeIdx))
	vt.varintField(vtUnit, int64(unitIdx))
	out.buf = appendMsg(out.buf, profSampleType, vt.buf)
	out.buf = append(out.buf, samples...)
	for i, name := range frames {
		id := uint64(i + 1)
		var ln enc
		ln.uvarintField(lineFunctionID, id)
		var loc enc
		loc.uvarintField(locID, id)
		loc.buf = appendMsg(loc.buf, locLine, ln.buf)
		out.buf = appendMsg(out.buf, profLocation, loc.buf)
		var fn enc
		fn.uvarintField(funcID, id)
		fn.varintField(funcName, int64(st.index(name)))
		out.buf = appendMsg(out.buf, profFunction, fn.buf)
	}
	for _, s := range st.table {
		out.bytesField(profStringTable, []byte(s))
	}
	out.varintField(profDurationNs, int64(p.MakespanSeconds*float64(time.Second)))
	out.buf = appendMsg(out.buf, profPeriodType, vt.buf)
	out.varintField(profPeriod, 1)
	return out.buf
}

// strtab is the profile's string table; index 0 is always "".
type strtab struct {
	table []string
	idx   map[string]int
}

func newStrtab() *strtab {
	return &strtab{table: []string{""}, idx: map[string]int{"": 0}}
}

func (s *strtab) index(v string) int {
	if i, ok := s.idx[v]; ok {
		return i
	}
	i := len(s.table)
	s.table = append(s.table, v)
	s.idx[v] = i
	return i
}

// enc is a minimal protobuf wire-format writer.
type enc struct{ buf []byte }

const (
	wireVarint = 0
	wireBytes  = 2
)

func (e *enc) tag(field, wire int) {
	e.uvarint(uint64(field)<<3 | uint64(wire))
}

func (e *enc) uvarint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

func (e *enc) varintField(field int, v int64) {
	if v == 0 {
		return
	}
	e.tag(field, wireVarint)
	e.uvarint(uint64(v))
}

func (e *enc) uvarintField(field int, v uint64) {
	if v == 0 {
		return
	}
	e.tag(field, wireVarint)
	e.uvarint(v)
}

func (e *enc) bytesField(field int, b []byte) {
	e.tag(field, wireBytes)
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// packedUvarints writes a packed repeated uint64 field.
func (e *enc) packedUvarints(field int, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	var inner enc
	for _, v := range vs {
		inner.uvarint(v)
	}
	e.bytesField(field, inner.buf)
}

// packedVarints writes a packed repeated int64 field.
func (e *enc) packedVarints(field int, vs []int64) {
	if len(vs) == 0 {
		return
	}
	var inner enc
	for _, v := range vs {
		inner.uvarint(uint64(v))
	}
	e.bytesField(field, inner.buf)
}

// appendMsg appends a length-delimited submessage field to buf.
func appendMsg(buf []byte, field int, msg []byte) []byte {
	var e enc
	e.buf = buf
	e.bytesField(field, msg)
	return e.buf
}
