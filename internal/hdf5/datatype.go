package hdf5

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Class is the broad family of a Datatype, mirroring HDF5 type classes.
type Class uint8

// Datatype classes.
const (
	ClassInt Class = iota + 1
	ClassUint
	ClassFloat
	ClassString // fixed-length
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassUint:
		return "uint"
	case ClassFloat:
		return "float"
	case ClassString:
		return "string"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Datatype describes the element type of a dataset or attribute. All
// numeric types are little-endian.
type Datatype struct {
	Class Class
	Size  uint32 // element size in bytes
}

// Predefined datatypes, named after their HDF5 counterparts.
var (
	I8  = Datatype{Class: ClassInt, Size: 1}
	I16 = Datatype{Class: ClassInt, Size: 2}
	I32 = Datatype{Class: ClassInt, Size: 4}
	I64 = Datatype{Class: ClassInt, Size: 8}
	U8  = Datatype{Class: ClassUint, Size: 1}
	U16 = Datatype{Class: ClassUint, Size: 2}
	U32 = Datatype{Class: ClassUint, Size: 4}
	U64 = Datatype{Class: ClassUint, Size: 8}
	F32 = Datatype{Class: ClassFloat, Size: 4}
	F64 = Datatype{Class: ClassFloat, Size: 8}
)

// FixedString returns a fixed-length string type of n bytes. A
// non-positive length is a programmer error (type shapes are static,
// like MustSimple's dimensions), hence the panic rather than an error
// return.
func FixedString(n int) Datatype {
	if n <= 0 {
		panic(fmt.Sprintf("hdf5: FixedString length %d", n))
	}
	return Datatype{Class: ClassString, Size: uint32(n)}
}

// Valid reports whether the datatype is a well-formed combination.
func (t Datatype) Valid() bool {
	switch t.Class {
	case ClassInt, ClassUint:
		return t.Size == 1 || t.Size == 2 || t.Size == 4 || t.Size == 8
	case ClassFloat:
		return t.Size == 4 || t.Size == 8
	case ClassString:
		return t.Size > 0
	default:
		return false
	}
}

// String implements fmt.Stringer, e.g. "float64" or "string[16]".
func (t Datatype) String() string {
	if t.Class == ClassString {
		return fmt.Sprintf("string[%d]", t.Size)
	}
	return fmt.Sprintf("%s%d", t.Class, t.Size*8)
}

func (t Datatype) encode(w *writer) {
	w.u8(uint8(t.Class))
	w.u32(t.Size)
}

func decodeDatatype(r *reader) Datatype {
	t := Datatype{Class: Class(r.u8()), Size: r.u32()}
	if r.err == nil && !t.Valid() {
		r.fail("invalid datatype %v", t)
	}
	return t
}

// The slice conversion helpers below move typed Go slices in and out of
// the raw little-endian []byte buffers the dataset API takes, without
// unsafe. They are the moral equivalent of HDF5's native memory types.

// Float64sToBytes encodes vs little-endian.
func Float64sToBytes(vs []float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BytesToFloat64s decodes little-endian doubles; len(b) must be a
// multiple of 8.
func BytesToFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Int64sToBytes encodes vs little-endian.
func Int64sToBytes(vs []int64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// BytesToInt64s decodes little-endian int64s.
func BytesToInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Int32sToBytes encodes vs little-endian.
func Int32sToBytes(vs []int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// BytesToInt32s decodes little-endian int32s.
func BytesToInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
