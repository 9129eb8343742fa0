package hdf5

import (
	"encoding/binary"
	"fmt"
)

// Attribute is a small named, typed value attached to a group or
// dataset. Data is stored inline in the object header.
type Attribute struct {
	Name  string
	Dtype Datatype
	Space *Dataspace
	Data  []byte
}

// setAttr adds or replaces an attribute on o.
func (o *object) setAttr(tp *TransferProps, name string, dtype Datatype, space *Dataspace, data []byte) error {
	if err := validateName(name); err != nil {
		return err
	}
	if !dtype.Valid() {
		return fmt.Errorf("hdf5: invalid attribute datatype %v", dtype)
	}
	if space == nil {
		space = NewScalar()
	}
	want := int64(space.Extent()) * int64(dtype.Size)
	if int64(len(data)) != want {
		return fmt.Errorf("hdf5: attribute %q data is %d bytes, space needs %d", name, len(data), want)
	}
	f := o.f
	if err := f.checkOpen(); err != nil {
		return err
	}
	entry := attrEntry{
		name:  name,
		dtype: dtype,
		shape: &Dataspace{dims: space.Dims()},
		data:  append([]byte(nil), data...),
	}
	replaced := false
	for i := range o.attrs {
		if o.attrs[i].name == name {
			o.attrs[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		o.attrs = append(o.attrs, entry)
	}
	f.driver.MetaOp(tp.proc())
	return nil
}

func (o *object) attr(tp *TransferProps, name string) (Attribute, error) {
	f := o.f
	if err := f.checkOpen(); err != nil {
		return Attribute{}, err
	}
	for _, a := range o.attrs {
		if a.name == name {
			out := Attribute{
				Name:  a.name,
				Dtype: a.dtype,
				Space: &Dataspace{dims: a.shape.Dims()},
				Data:  append([]byte(nil), a.data...),
			}
			f.driver.MetaOp(tp.proc())
			return out, nil
		}
	}
	return Attribute{}, fmt.Errorf("%w: attribute %q", ErrNotFound, name)
}

// SetAttr adds or replaces an attribute on the group.
func (g *Group) SetAttr(tp *TransferProps, name string, dtype Datatype, space *Dataspace, data []byte) error {
	return g.o.setAttr(tp, name, dtype, space, data)
}

// Scalar attribute conveniences.

// SetAttrInt64 stores a scalar int64 attribute.
func (g *Group) SetAttrInt64(tp *TransferProps, name string, v int64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return g.SetAttr(tp, name, I64, NewScalar(), b[:])
}

// AttrInt64 reads a scalar int64 attribute.
func (g *Group) AttrInt64(tp *TransferProps, name string) (int64, error) {
	a, err := g.o.attr(tp, name)
	if err != nil {
		return 0, err
	}
	if a.Dtype != I64 {
		return 0, fmt.Errorf("hdf5: attribute %q is %v, not int64", name, a.Dtype)
	}
	return int64(binary.LittleEndian.Uint64(a.Data)), nil
}

// SetAttrString stores a fixed-length string attribute. Empty strings
// are rejected (the format has no zero-length types).
func (g *Group) SetAttrString(tp *TransferProps, name, v string) error {
	if v == "" {
		return fmt.Errorf("hdf5: empty string attribute %q", name)
	}
	return g.SetAttr(tp, name, FixedString(len(v)), NewScalar(), []byte(v))
}

// AttrString reads a string attribute.
func (g *Group) AttrString(tp *TransferProps, name string) (string, error) {
	a, err := g.o.attr(tp, name)
	if err != nil {
		return "", err
	}
	if a.Dtype.Class != ClassString {
		return "", fmt.Errorf("hdf5: attribute %q is %v, not a string", name, a.Dtype)
	}
	return string(a.Data), nil
}
