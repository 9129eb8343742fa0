package hdf5

import (
	"errors"
	"fmt"
	"strconv"
)

// ErrSelection is returned for invalid hyperslab selections.
var ErrSelection = errors.New("hdf5: invalid selection")

// Dataspace describes the extent of a dataset or attribute — an
// N-dimensional array shape — plus the current selection within it.
// A fresh Dataspace selects everything.
//
// Selections follow HDF5's regular-hyperslab model: per-dimension start,
// stride, count and block. Element traversal order is row-major
// (C order), and data buffers passed to Dataset.Read/Write are packed in
// that traversal order.
type Dataspace struct {
	dims   []uint64
	sel    *hyperslab // nil means the whole extent
	points []uint64   // element-list selection (linear offsets), or nil
}

type hyperslab struct {
	start, stride, count, block []uint64
}

// set copies the four selection vectors (each of rank n) into consecutive
// quarters of buf, which must hold 4n elements: one backing array instead
// of four.
func (h *hyperslab) set(buf, start, stride, count, block []uint64) {
	n := len(start)
	h.start, h.stride, h.count, h.block = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:4*n:4*n]
	copy(h.start, start)
	copy(h.stride, stride)
	copy(h.count, count)
	copy(h.block, block)
}

// stackRank is the largest rank whose per-call index vectors (EachRun's
// row strides and odometer) live in a stack array instead of the heap.
const stackRank = 4

// NewScalar returns a zero-dimensional space holding a single element.
func NewScalar() *Dataspace { return &Dataspace{} }

// NewSimple returns a simple dataspace with the given dimensions. Every
// dimension must be positive.
func NewSimple(dims ...uint64) (*Dataspace, error) {
	for i, d := range dims {
		if d == 0 {
			return nil, fmt.Errorf("%w: zero-sized dimension %d", ErrSelection, i)
		}
	}
	return &Dataspace{dims: append([]uint64(nil), dims...)}, nil
}

// MustSimple is NewSimple for statically known shapes; it panics on error.
func MustSimple(dims ...uint64) *Dataspace {
	s, err := NewSimple(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// NDims returns the rank of the space (0 for scalar).
func (s *Dataspace) NDims() int { return len(s.dims) }

// Dims returns a copy of the dimensions.
func (s *Dataspace) Dims() []uint64 { return append([]uint64(nil), s.dims...) }

// Extent returns the total number of elements in the full space.
func (s *Dataspace) Extent() uint64 {
	n := uint64(1)
	for _, d := range s.dims {
		n *= d
	}
	return n
}

// Copy returns an independent copy of the space and its selection, in
// two allocations: the descriptor with room for a hyperslab, and one
// backing array for every vector.
func (s *Dataspace) Copy() *Dataspace {
	nd, np := len(s.dims), len(s.points)
	c := &struct {
		Dataspace
		slab hyperslab
	}{}
	buf := make([]uint64, 5*nd+np)
	c.dims = buf[:nd:nd]
	copy(c.dims, s.dims)
	if s.points != nil {
		c.points = buf[nd : nd+np : nd+np]
		copy(c.points, s.points)
	}
	if s.sel != nil {
		c.slab.set(buf[nd+np:], s.sel.start, s.sel.stride, s.sel.count, s.sel.block)
		c.sel = &c.slab
	}
	return &c.Dataspace
}

// SelectAll selects the entire extent.
func (s *Dataspace) SelectAll() {
	s.sel = nil
	s.points = nil
}

// SelectHyperslab selects a regular hyperslab. A nil block defaults to
// all-ones; a nil stride defaults to the block (packed blocks). Strides
// smaller than blocks (overlapping selections) are rejected, as are
// selections extending beyond the extent.
func (s *Dataspace) SelectHyperslab(start, stride, count, block []uint64) error {
	n := len(s.dims)
	if len(start) != n || len(count) != n {
		return fmt.Errorf("%w: start/count rank %d/%d vs space rank %d",
			ErrSelection, len(start), len(count), n)
	}
	if block == nil {
		block = make([]uint64, n)
		for i := range block {
			block[i] = 1
		}
	}
	if len(block) != n {
		return fmt.Errorf("%w: block rank %d vs space rank %d", ErrSelection, len(block), n)
	}
	if stride == nil {
		stride = append([]uint64(nil), block...)
	}
	if len(stride) != n {
		return fmt.Errorf("%w: stride rank %d vs space rank %d", ErrSelection, len(stride), n)
	}
	for d := 0; d < n; d++ {
		if block[d] == 0 {
			return fmt.Errorf("%w: zero block in dim %d", ErrSelection, d)
		}
		if stride[d] < block[d] {
			return fmt.Errorf("%w: overlapping blocks in dim %d (stride %d < block %d)",
				ErrSelection, d, stride[d], block[d])
		}
		if count[d] == 0 {
			continue
		}
		last := start[d] + (count[d]-1)*stride[d] + block[d]
		if last > s.dims[d] {
			return fmt.Errorf("%w: dim %d selection reaches %d beyond extent %d",
				ErrSelection, d, last, s.dims[d])
		}
	}
	s.sel = new(hyperslab)
	s.sel.set(make([]uint64, 4*n), start, stride, count, block)
	s.points = nil
	return nil
}

// SelectionCount returns the number of selected elements.
func (s *Dataspace) SelectionCount() uint64 {
	if s.points != nil {
		return uint64(len(s.points))
	}
	if s.sel == nil {
		return s.Extent()
	}
	n := uint64(1)
	for d := range s.dims {
		n *= s.sel.count[d] * s.sel.block[d]
	}
	return n
}

// EachRun calls fn for every maximal contiguous run of selected
// elements, in row-major traversal order. offset is the linear element
// offset of the run within the full extent; n is the run length in
// elements. Iteration stops on the first error, which is returned.
func (s *Dataspace) EachRun(fn func(offset, n uint64) error) error {
	if s.points != nil {
		for _, off := range s.points {
			if err := fn(off, 1); err != nil {
				return err
			}
		}
		return nil
	}
	if s.SelectionCount() == 0 {
		return nil
	}
	if s.sel == nil {
		return fn(0, s.Extent())
	}
	nd := len(s.dims)
	// rowStride[d] = elements per unit step in dimension d; idx is the
	// odometer over dims [0, last).
	var stack [2 * stackRank]uint64
	scratch := stack[:]
	if nd > stackRank {
		scratch = make([]uint64, 2*nd)
	}
	rowStride, idx := scratch[:nd], scratch[nd:2*nd-1]
	rs := uint64(1)
	for d := nd - 1; d >= 0; d-- {
		rowStride[d] = rs
		rs *= s.dims[d]
	}
	sel := s.sel
	last := nd - 1
	// Fast path for the last dimension: packed blocks coalesce into one
	// run per row.
	lastPacked := sel.stride[last] == sel.block[last] || sel.count[last] == 1
	emitRow := func(base uint64) error {
		rowBase := base + sel.start[last]
		if lastPacked {
			return fn(rowBase, sel.count[last]*sel.block[last])
		}
		for c := uint64(0); c < sel.count[last]; c++ {
			if err := fn(rowBase+c*sel.stride[last], sel.block[last]); err != nil {
				return err
			}
		}
		return nil
	}
	if nd == 1 {
		return emitRow(0)
	}
	// Each odometer position enumerates count[d]*block[d] coordinates.
	for {
		base := uint64(0)
		for d := 0; d < last; d++ {
			pos := sel.start[d] + (idx[d]/sel.block[d])*sel.stride[d] + idx[d]%sel.block[d]
			base += pos * rowStride[d]
		}
		if err := emitRow(base); err != nil {
			return err
		}
		// Increment odometer, rightmost fastest.
		d := last - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < sel.count[d]*sel.block[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return nil
		}
	}
}

// String renders the extent and selection, e.g.
// "[100]{start:[10] stride:[1] count:[20] block:[1]}". It is stable and
// unique per (extent, selection), so callers may use it as a cache key —
// asyncvol does, per read, which is why it is built without fmt: one
// allocation (the string) for selections of the usual size.
func (s *Dataspace) String() string {
	var stack [192]byte
	b := appendVec(stack[:0], "", s.dims)
	switch {
	case s.points != nil:
		b = appendVec(b, "{points:", s.points)
	case s.sel == nil:
		b = append(b, "{all"...)
	default:
		b = appendVec(b, "{start:", s.sel.start)
		b = appendVec(b, " stride:", s.sel.stride)
		b = appendVec(b, " count:", s.sel.count)
		b = appendVec(b, " block:", s.sel.block)
	}
	return string(append(b, '}'))
}

// appendVec appends prefix and then v the way fmt's %v prints a slice.
func appendVec(b []byte, prefix string, v []uint64) []byte {
	b = append(append(b, prefix...), '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, x, 10)
	}
	return append(b, ']')
}

func (s *Dataspace) encode(w *writer) {
	w.u8(uint8(len(s.dims)))
	for _, d := range s.dims {
		w.u64(d)
	}
}

func decodeDataspace(r *reader) *Dataspace {
	nd := int(r.u8())
	dims := make([]uint64, nd)
	for i := range dims {
		dims[i] = r.u64()
		if r.err == nil && dims[i] == 0 {
			r.fail("zero dimension %d in stored dataspace", i)
		}
	}
	return &Dataspace{dims: dims}
}

// SelectPoints selects an explicit list of element coordinates (HDF5's
// H5Sselect_elements). Points are visited in the order given; each
// becomes a run of one element. Duplicate points are rejected for
// writes' sake (they would make write order significant).
func (s *Dataspace) SelectPoints(points [][]uint64) error {
	n := len(s.dims)
	seen := make(map[uint64]struct{}, len(points))
	linear := make([]uint64, 0, len(points))
	for pi, pt := range points {
		if len(pt) != n {
			return fmt.Errorf("%w: point %d rank %d vs space rank %d",
				ErrSelection, pi, len(pt), n)
		}
		var off uint64
		stride := uint64(1)
		for d := n - 1; d >= 0; d-- {
			if pt[d] >= s.dims[d] {
				return fmt.Errorf("%w: point %d coordinate %d out of extent %v",
					ErrSelection, pi, pt[d], s.dims)
			}
			off += pt[d] * stride
			stride *= s.dims[d]
		}
		if _, dup := seen[off]; dup {
			return fmt.Errorf("%w: duplicate point %v", ErrSelection, pt)
		}
		seen[off] = struct{}{}
		linear = append(linear, off)
	}
	s.sel = nil
	s.points = linear
	return nil
}
