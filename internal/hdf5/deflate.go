package hdf5

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// The deflate filter stores each chunk DEFLATE-compressed. Compressed
// chunks vary in size, so a rewritten chunk is reallocated at the end of
// the file and the index entry updated (space is never reclaimed,
// matching the library's allocator policy; h5repack-style compaction is
// a Flush-time rewrite away).
//
// Writes touching part of a chunk are read-modify-write: the chunk is
// inflated, patched, deflated, and stored again. One dataset operation
// caches every chunk it touches so a multi-row hyperslab compresses each
// chunk once, not once per row.

// writeDeflate implements Dataset.Write for deflate-filtered layouts.
func (d *Dataset) writeDeflate(fspace *Dataspace, buf []byte) error {
	tsize := uint64(d.o.dtype.Size)
	cache := make(map[chunkKey][]byte)
	var order []chunkKey // deterministic flush order
	var memOff uint64
	err := fspace.EachRun(func(off, n uint64) error {
		return d.eachChunkPiece(off, n, func(key chunkKey, innerOff, pieceElems uint64) error {
			chunk, ok := cache[key]
			if !ok {
				var err error
				chunk, err = d.loadChunkDeflate(key)
				if err != nil {
					return err
				}
				cache[key] = chunk
				order = append(order, key)
			}
			b := buf[memOff*tsize : (memOff+pieceElems)*tsize]
			memOff += pieceElems
			copy(chunk[innerOff*tsize:(innerOff+pieceElems)*tsize], b)
			return nil
		})
	})
	if err != nil {
		return err
	}
	for _, key := range order {
		if err := d.storeChunkDeflate(key, cache[key]); err != nil {
			return err
		}
	}
	return nil
}

// readDeflate implements Dataset.Read for deflate-filtered layouts.
func (d *Dataset) readDeflate(fspace *Dataspace, buf []byte) error {
	tsize := uint64(d.o.dtype.Size)
	cache := make(map[chunkKey][]byte)
	var memOff uint64
	return fspace.EachRun(func(off, n uint64) error {
		return d.eachChunkPiece(off, n, func(key chunkKey, innerOff, pieceElems uint64) error {
			chunk, ok := cache[key]
			if !ok {
				var err error
				chunk, err = d.loadChunkDeflate(key)
				if err != nil {
					return err
				}
				cache[key] = chunk
			}
			b := buf[memOff*tsize : (memOff+pieceElems)*tsize]
			memOff += pieceElems
			copy(b, chunk[innerOff*tsize:(innerOff+pieceElems)*tsize])
			return nil
		})
	})
}

// loadChunkDeflate returns the chunk's uncompressed contents, or a
// zero-filled buffer for unallocated chunks (the fill value).
func (d *Dataset) loadChunkDeflate(key chunkKey) ([]byte, error) {
	f := d.o.f
	raw := make([]byte, d.chunkNBytes())
	ce, ok := d.o.lay.chunks.Get(key)
	if !ok {
		return raw, nil
	}
	stored := make([]byte, ce.size)
	if _, err := f.store.ReadAt(stored, ce.addr); err != nil && err != io.EOF {
		return nil, fmt.Errorf("hdf5: read compressed chunk: %w", err)
	}
	fr := flate.NewReader(bytes.NewReader(stored))
	defer fr.Close()
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, fmt.Errorf("%w: inflating chunk: %v", ErrCorrupt, err)
	}
	return raw, nil
}

// storeChunkDeflate compresses and stores a chunk at a fresh address,
// updating the index.
func (d *Dataset) storeChunkDeflate(key chunkKey, chunk []byte) error {
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
	if err != nil {
		return fmt.Errorf("hdf5: deflate init: %w", err)
	}
	if _, err := fw.Write(chunk); err != nil {
		return fmt.Errorf("hdf5: deflating chunk: %w", err)
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("hdf5: deflating chunk: %w", err)
	}
	f := d.o.f
	addr := f.alloc(int64(comp.Len()))
	d.o.lay.chunks.Put(key, chunkEntry{addr: addr, size: int64(comp.Len())})
	if _, err := f.store.WriteAt(comp.Bytes(), addr); err != nil {
		return fmt.Errorf("hdf5: write compressed chunk: %w", err)
	}
	return nil
}

// Deflated reports whether the dataset uses the deflate filter.
func (d *Dataset) Deflated() bool { return d.o.lay.deflate }

// StoredBytes returns the bytes of allocated raw storage: the contiguous
// extent, or the sum of (possibly compressed) chunk sizes.
func (d *Dataset) StoredBytes() int64 {
	if !d.o.lay.chunked {
		return d.o.lay.size
	}
	var n int64
	d.o.lay.chunks.Ascend(func(_ chunkKey, ce chunkEntry) bool {
		n += ce.size
		return true
	})
	return n
}
