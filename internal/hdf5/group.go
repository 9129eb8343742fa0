package hdf5

import (
	"fmt"
	"strings"
)

// Group is a directory of named objects, like an HDF5 group.
type Group struct {
	o    *object
	path string
}

// joinPath appends a (possibly multi-component) relative path to a base
// group path, collapsing empty components.
func joinPath(base, rel string) string {
	var b strings.Builder
	b.Grow(len(base) + 1 + len(rel)) // the result's upper bound: one allocation
	b.WriteString(strings.TrimSuffix(base, "/"))
	for rest := rel; rest != ""; {
		var part string
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, ""
		}
		if part == "" {
			continue
		}
		b.WriteByte('/')
		b.WriteString(part)
	}
	if b.Len() == 0 {
		return "/"
	}
	return b.String()
}

// CreateProps configures dataset creation (the HDF5 DCPL analog).
type CreateProps struct {
	// ChunkDims switches the dataset to chunked layout with the given
	// chunk shape (same rank as the dataspace). Nil means contiguous.
	ChunkDims []uint64
	// Deflate enables per-chunk DEFLATE compression (the H5Pset_deflate
	// filter). Requires chunked layout.
	Deflate bool
}

// maxNameLen bounds object and attribute names to what the wire format
// can encode (a u16 length prefix — see writer.str).
const maxNameLen = 0xFFFF

// validateName rejects empty names, path separators, and names too long
// for the wire format; creation is one component at a time, as in
// H5Gcreate/H5Dcreate with relative names. Because every name entering
// the file passes this check, writer.str's length panic is an internal
// invariant rather than a user-reachable failure.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("hdf5: empty object name")
	}
	if strings.Contains(name, "/") {
		return fmt.Errorf("hdf5: name %q must be a single path component", name)
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("hdf5: name is %d bytes, limit %d", len(name), maxNameLen)
	}
	return nil
}

// CreateGroup creates a child group.
func (g *Group) CreateGroup(tp *TransferProps, name string) (*Group, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	f := g.o.f
	if err := f.checkOpen(); err != nil {
		return nil, err
	}
	if _, exists := g.o.links.Get(name); exists {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	child := &object{f: f, kind: kindGroup, links: newLinkTable()}
	g.o.links.Put(name, &link{name: name, kind: kindGroup, obj: child})
	f.driver.MetaOp(tp.proc())
	return &Group{o: child, path: joinPath(g.path, name)}, nil
}

// resolve walks one path component, loading it from disk if needed.
func (g *Group) resolve(name string) (*object, error) {
	l, ok := g.o.links.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if l.obj == nil {
		o, err := g.o.f.loadObject(l.addr)
		if err != nil {
			return nil, fmt.Errorf("loading %q: %w", name, err)
		}
		l.obj = o
	}
	return l.obj, nil
}

// walk resolves a possibly multi-component path relative to g. Leading
// and repeated slashes are tolerated.
func (g *Group) walk(tp *TransferProps, path string) (*object, error) {
	f := g.o.f
	if err := f.checkOpen(); err != nil {
		return nil, err
	}
	cur := g.o
	hops := 0
	var walkErr error
	// Iterate components without strings.Split: walk runs once per
	// dataset operation, and the split's slice allocation shows up in
	// whole-simulation profiles.
	for rest := path; rest != ""; {
		var part string
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, ""
		}
		if part == "" {
			continue
		}
		if cur.kind != kindGroup {
			walkErr = fmt.Errorf("hdf5: %q is not a group", part)
			break
		}
		o, err := (&Group{o: cur}).resolve(part)
		if err != nil {
			walkErr = err
			break
		}
		hops++
		cur = o
	}
	for i := 0; i < hops; i++ {
		f.driver.MetaOp(tp.proc())
	}
	if walkErr != nil {
		return nil, walkErr
	}
	return cur, nil
}

// OpenGroup opens a group by path relative to g (absolute-style paths
// are treated as relative to g too; use File.Root for "/").
func (g *Group) OpenGroup(tp *TransferProps, path string) (*Group, error) {
	o, err := g.walk(tp, path)
	if err != nil {
		return nil, err
	}
	if o.kind != kindGroup {
		return nil, fmt.Errorf("hdf5: %q is not a group", path)
	}
	return &Group{o: o, path: joinPath(g.path, path)}, nil
}

// OpenDataset opens a dataset by path relative to g.
func (g *Group) OpenDataset(tp *TransferProps, path string) (*Dataset, error) {
	o, err := g.walk(tp, path)
	if err != nil {
		return nil, err
	}
	if o.kind != kindDataset {
		return nil, fmt.Errorf("hdf5: %q is not a dataset", path)
	}
	return &Dataset{o: o, in: g, rel: path}, nil
}

// List returns the names of direct children in lexicographic order.
func (g *Group) List() []string {
	out := make([]string, 0, g.o.links.Len())
	g.o.links.Ascend(func(name string, _ *link) bool {
		out = append(out, name)
		return true
	})
	return out
}

// CreateDataset creates a child dataset with the given element type and
// shape. props may be nil for contiguous layout; contiguous storage is
// allocated eagerly, chunked storage on first touch per chunk.
func (g *Group) CreateDataset(tp *TransferProps, name string, dtype Datatype, space *Dataspace, props *CreateProps) (*Dataset, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if !dtype.Valid() {
		return nil, fmt.Errorf("hdf5: invalid datatype %v", dtype)
	}
	if space == nil {
		return nil, fmt.Errorf("hdf5: nil dataspace")
	}
	f := g.o.f
	if err := f.checkOpen(); err != nil {
		return nil, err
	}
	if _, exists := g.o.links.Get(name); exists {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	ds := &object{
		f:     f,
		kind:  kindDataset,
		dtype: dtype,
		shape: &Dataspace{dims: space.Dims()},
	}
	if props != nil && props.ChunkDims != nil {
		if len(props.ChunkDims) != space.NDims() {
			return nil, fmt.Errorf("hdf5: chunk rank %d vs dataspace rank %d",
				len(props.ChunkDims), space.NDims())
		}
		if len(props.ChunkDims) > maxRank {
			return nil, fmt.Errorf("hdf5: chunked rank %d exceeds maximum %d",
				len(props.ChunkDims), maxRank)
		}
		for d, c := range props.ChunkDims {
			if c == 0 {
				return nil, fmt.Errorf("hdf5: zero chunk dimension %d", d)
			}
		}
		ds.lay = layout{
			chunked:   true,
			deflate:   props.Deflate,
			chunkDims: append([]uint64(nil), props.ChunkDims...),
			chunks:    newChunkIndex(),
		}
	} else if props != nil && props.Deflate {
		return nil, fmt.Errorf("hdf5: the deflate filter requires chunked layout")
	} else {
		size := int64(space.Extent()) * int64(dtype.Size)
		ds.lay = layout{addr: f.alloc(size), size: size}
	}
	g.o.links.Put(name, &link{name: name, kind: kindDataset, obj: ds})
	f.driver.MetaOp(tp.proc())
	return &Dataset{o: ds, in: g, rel: name}, nil
}
