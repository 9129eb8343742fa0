package hdf5

import (
	"fmt"
	"io"
	"slices"
)

// Dataset is a typed N-dimensional array in the file, like an HDF5
// dataset. Read and Write accept a file-space selection; the memory
// buffer is packed in the selection's row-major traversal order
// (equivalent to a contiguous memory dataspace in HDF5).
type Dataset struct {
	o *object
	// The handle's path, kept as its two halves — the group it was
	// reached through and the name relative to it — because every rank
	// opens every dataset and only journals, the consistency checker and
	// error text ever ask for the join.
	in  *Group
	rel string
}

// Path returns the absolute path the dataset was created or opened
// under (e.g. "/Step#0/x"); recovery journals record it so a post-crash
// scan can re-open the dataset by name.
func (d *Dataset) Path() string { return joinPath(d.in.path, d.rel) }

// Dtype returns the element type.
func (d *Dataset) Dtype() Datatype { return d.o.dtype }

// Space returns the dataset's extent with everything selected. It shares
// the extent vector, which is never modified in place (Extend installs a
// new one), so the per-request full-extent selection copies nothing.
func (d *Dataset) Space() *Dataspace { return &Dataspace{dims: d.o.shape.dims} }

// Dims returns a copy of the dataset dimensions.
func (d *Dataset) Dims() []uint64 { return d.o.shape.Dims() }

// NDims returns the dataset's rank.
func (d *Dataset) NDims() int { return d.o.shape.NDims() }

// SameExtent reports whether s spans exactly the dataset's dimensions.
func (d *Dataset) SameExtent(s *Dataspace) bool { return slices.Equal(s.dims, d.o.shape.dims) }

// NBytes returns the total dataset size in bytes.
func (d *Dataset) NBytes() int64 {
	return int64(d.o.shape.Extent()) * int64(d.o.dtype.Size)
}

// Chunked reports whether the dataset uses chunked layout.
func (d *Dataset) Chunked() bool { return d.o.lay.chunked }

// UID returns an opaque comparable token identifying the underlying
// dataset object: handles from separate opens of the same dataset share
// it. Connectors use it as a cache key.
func (d *Dataset) UID() any { return d.o }

// validateTransfer checks the selection against the dataset shape and
// buffer, returning the selection to use and its byte count.
func (d *Dataset) validateTransfer(fspace *Dataspace, buf []byte) (*Dataspace, int64, error) {
	if fspace == nil {
		fspace = d.Space()
	} else {
		if fspace.NDims() != d.NDims() {
			return nil, 0, fmt.Errorf("hdf5: selection rank %d vs dataset rank %d",
				fspace.NDims(), d.NDims())
		}
		if !d.SameExtent(fspace) {
			return nil, 0, fmt.Errorf("hdf5: selection extent %v vs dataset extent %v", fspace.dims, d.o.shape.dims)
		}
	}
	nbytes := int64(fspace.SelectionCount()) * int64(d.o.dtype.Size)
	if int64(len(buf)) != nbytes {
		return nil, 0, fmt.Errorf("hdf5: buffer is %d bytes, selection needs %d", len(buf), nbytes)
	}
	return fspace, nbytes, nil
}

// Write stores buf into the selected region of the dataset. A nil fspace
// selects the whole extent. The driver is charged for nbytes before the
// bytes move.
func (d *Dataset) Write(tp *TransferProps, fspace *Dataspace, buf []byte) error {
	f := d.o.f
	if err := f.checkOpen(); err != nil {
		return err
	}
	fspace, nbytes, err := d.validateTransfer(fspace, buf)
	if err != nil {
		return err
	}
	if err := chargeWrite(f.driver, tp, nbytes); err != nil {
		return err
	}
	tsize := uint64(d.o.dtype.Size)
	var memOff uint64
	if !d.o.lay.chunked {
		base := d.o.lay.addr
		return fspace.EachRun(func(off, n uint64) error {
			b := buf[memOff*tsize : (memOff+n)*tsize]
			memOff += n
			if _, err := f.store.WriteAt(b, base+int64(off*tsize)); err != nil {
				return fmt.Errorf("hdf5: write data: %w", err)
			}
			return nil
		})
	}
	if d.o.lay.deflate {
		return d.writeDeflate(fspace, buf)
	}
	chunkBytes := d.chunkNBytes()
	return fspace.EachRun(func(off, n uint64) error {
		return d.eachChunkPiece(off, n, func(key chunkKey, innerOff, pieceElems uint64) error {
			addr, err := d.chunkAddr(key, chunkBytes, true)
			if err != nil {
				return err
			}
			b := buf[memOff*tsize : (memOff+pieceElems)*tsize]
			memOff += pieceElems
			if _, err := f.store.WriteAt(b, addr+int64(innerOff*tsize)); err != nil {
				return fmt.Errorf("hdf5: write chunk: %w", err)
			}
			return nil
		})
	})
}

// Read fills buf from the selected region. Unallocated chunk regions
// read as zeros (the fill value).
func (d *Dataset) Read(tp *TransferProps, fspace *Dataspace, buf []byte) error {
	f := d.o.f
	if err := f.checkOpen(); err != nil {
		return err
	}
	fspace, nbytes, err := d.validateTransfer(fspace, buf)
	if err != nil {
		return err
	}
	if err := chargeRead(f.driver, tp, nbytes); err != nil {
		return err
	}
	tsize := uint64(d.o.dtype.Size)
	var memOff uint64
	readAt := func(b []byte, addr int64) error {
		if _, err := f.store.ReadAt(b, addr); err != nil && err != io.EOF {
			return fmt.Errorf("hdf5: read data: %w", err)
		}
		return nil
	}
	if !d.o.lay.chunked {
		base := d.o.lay.addr
		return fspace.EachRun(func(off, n uint64) error {
			b := buf[memOff*tsize : (memOff+n)*tsize]
			memOff += n
			return readAt(b, base+int64(off*tsize))
		})
	}
	if d.o.lay.deflate {
		return d.readDeflate(fspace, buf)
	}
	chunkBytes := d.chunkNBytes()
	return fspace.EachRun(func(off, n uint64) error {
		return d.eachChunkPiece(off, n, func(key chunkKey, innerOff, pieceElems uint64) error {
			addr, err := d.chunkAddr(key, chunkBytes, false)
			if err != nil {
				return err
			}
			b := buf[memOff*tsize : (memOff+pieceElems)*tsize]
			memOff += pieceElems
			if addr < 0 { // unallocated chunk: fill value
				for i := range b {
					b[i] = 0
				}
				return nil
			}
			return readAt(b, addr+int64(innerOff*tsize))
		})
	})
}

// ReadNull charges and walks a read of the selection without moving any
// bytes. It exists for simulation-scale runs (NullStore-backed files
// with tens of thousands of ranks) where materializing buffers would
// exhaust host memory: the driver is charged and chunk lookups happen
// exactly as in Read.
func (d *Dataset) ReadNull(tp *TransferProps, fspace *Dataspace) error {
	f := d.o.f
	if err := f.checkOpen(); err != nil {
		return err
	}
	fspace, nbytes, err := d.validateSelection(fspace)
	if err != nil {
		return err
	}
	if err := chargeRead(f.driver, tp, nbytes); err != nil {
		return err
	}
	if !d.o.lay.chunked {
		return nil
	}
	return fspace.EachRun(func(off, n uint64) error {
		return d.eachChunkPiece(off, n, func(chunkKey, uint64, uint64) error { return nil })
	})
}

// WriteNull charges and walks a write of the selection without moving
// any bytes. Chunks are allocated exactly as a real write would allocate
// them. See ReadNull.
func (d *Dataset) WriteNull(tp *TransferProps, fspace *Dataspace) error {
	f := d.o.f
	if err := f.checkOpen(); err != nil {
		return err
	}
	fspace, nbytes, err := d.validateSelection(fspace)
	if err != nil {
		return err
	}
	if err := chargeWrite(f.driver, tp, nbytes); err != nil {
		return err
	}
	if !d.o.lay.chunked {
		return nil
	}
	chunkBytes := d.chunkNBytes()
	return fspace.EachRun(func(off, n uint64) error {
		return d.eachChunkPiece(off, n, func(key chunkKey, _, _ uint64) error {
			_, err := d.chunkAddr(key, chunkBytes, true)
			return err
		})
	})
}

// validateSelection is validateTransfer without a buffer to check.
func (d *Dataset) validateSelection(fspace *Dataspace) (*Dataspace, int64, error) {
	if fspace == nil {
		fspace = d.Space()
	} else if fspace.NDims() != d.o.shape.NDims() {
		return nil, 0, fmt.Errorf("hdf5: selection rank %d vs dataset rank %d",
			fspace.NDims(), d.o.shape.NDims())
	}
	return fspace, int64(fspace.SelectionCount()) * int64(d.o.dtype.Size), nil
}

// eachChunkPiece splits the run starting at linear element offset off
// with n elements (contiguous along the last dimension) at chunk
// boundaries, invoking fn with the chunk's grid coordinate and the
// piece's element offset within the chunk.
func (d *Dataset) eachChunkPiece(off, n uint64, fn func(key chunkKey, innerOff, pieceElems uint64) error) error {
	dims := d.o.shape.dims
	cd := d.o.lay.chunkDims
	nd := len(dims)
	tsize := uint64(d.o.dtype.Size)
	// Decompose the linear offset into coordinates.
	coord := make([]uint64, nd)
	rem := off
	for dim := nd - 1; dim >= 0; dim-- {
		coord[dim] = rem % dims[dim]
		rem /= dims[dim]
	}
	// Row-major strides within a chunk.
	chunkStride := make([]uint64, nd)
	cs := uint64(1)
	for dim := nd - 1; dim >= 0; dim-- {
		chunkStride[dim] = cs
		cs *= cd[dim]
	}
	_ = tsize

	last := nd - 1
	x := coord[last]
	remaining := n
	// Chunk coordinate and intra-chunk offset contributions of the
	// fixed (non-last) dimensions, recomputed whenever the run wraps to
	// the next row.
	var gridBase chunkKey
	var innerBase uint64
	recompute := func() {
		gridBase = chunkKey{}
		innerBase = 0
		for dim := 0; dim < last; dim++ {
			gridBase[dim] = coord[dim] / cd[dim]
			innerBase += (coord[dim] % cd[dim]) * chunkStride[dim]
		}
	}
	recompute()
	for remaining > 0 {
		// Serve the current row up to its end, chunk piece by chunk
		// piece.
		span := dims[last] - x
		if span > remaining {
			span = remaining
		}
		end := x + span
		for x < end {
			cc := x / cd[last]
			x0 := x % cd[last]
			take := cd[last] - x0
			if take > end-x {
				take = end - x
			}
			key := gridBase
			key[last] = cc
			if err := fn(key, innerBase+x0*chunkStride[last], take); err != nil {
				return err
			}
			x += take
			remaining -= take
		}
		if remaining == 0 {
			return nil
		}
		// Wrap to the start of the next row (runs from SelectAll span
		// many rows).
		x = 0
		for dim := last - 1; dim >= 0; dim-- {
			coord[dim]++
			if coord[dim] < dims[dim] {
				break
			}
			coord[dim] = 0
		}
		recompute()
	}
	return nil
}

// chunkNBytes returns the uncompressed byte size of one chunk.
func (d *Dataset) chunkNBytes() int64 {
	n := int64(d.o.dtype.Size)
	for _, c := range d.o.lay.chunkDims {
		n *= int64(c)
	}
	return n
}

// chunkAddr returns the base byte address of the chunk with the given
// grid coordinate, allocating it when requested. Returns -1 for absent
// chunks when allocate is false.
func (d *Dataset) chunkAddr(key chunkKey, chunkBytes int64, allocate bool) (int64, error) {
	f := d.o.f
	if ce, ok := d.o.lay.chunks.Get(key); ok {
		return ce.addr, nil
	}
	if !allocate {
		return -1, nil
	}
	addr := f.alloc(chunkBytes)
	d.o.lay.chunks.Put(key, chunkEntry{addr: addr, size: chunkBytes})
	return addr, nil
}

// Extend grows the dataset's extent, like H5Dset_extent restricted to
// growth. Only chunked datasets are extendable (contiguous storage is
// allocated at creation); existing data is preserved because chunks are
// keyed by grid coordinates.
func (d *Dataset) Extend(tp *TransferProps, newDims []uint64) error {
	f := d.o.f
	if err := f.checkOpen(); err != nil {
		return err
	}
	if !d.o.lay.chunked {
		return fmt.Errorf("hdf5: Extend on contiguous dataset (chunked layout required)")
	}
	old := d.o.shape.dims
	if len(newDims) != len(old) {
		return fmt.Errorf("hdf5: Extend rank %d vs dataset rank %d", len(newDims), len(old))
	}
	for i, nv := range newDims {
		if nv < old[i] {
			return fmt.Errorf("hdf5: Extend would shrink dim %d (%d -> %d)", i, old[i], nv)
		}
	}
	d.o.shape.dims = append([]uint64(nil), newDims...)
	f.driver.MetaOp(tp.proc())
	return nil
}

// NumChunks returns the number of allocated chunks (0 for contiguous
// datasets).
func (d *Dataset) NumChunks() int {
	if !d.o.lay.chunked {
		return 0
	}
	return d.o.lay.chunks.Len()
}
