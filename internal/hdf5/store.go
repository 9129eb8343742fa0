// Package hdf5 implements a self-describing hierarchical container
// library modeled on HDF5: a single file holds a tree of groups,
// typed N-dimensional datasets with contiguous or chunked layout,
// attributes, and hyperslab-selectable parallel reads and writes.
//
// It is the substrate the paper's evaluation drives through H5Dread /
// H5Dwrite. The format is a simplified HDF5 analog (superblock, object
// headers with typed messages, B+tree chunk indexes, CRC32-guarded
// metadata), not the HDF5 wire format itself. Data moves for real through
// a pluggable Store; time is charged through a pluggable Driver so the
// same library runs both as an ordinary storage library (wall-clock,
// NopDriver) and inside the discrete-event simulation (virtual-clock
// file-system models).
package hdf5

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Store is the byte-addressable backing a File lives in. The ranks of a
// run share one; they are processes of one clock, so an implementation
// needs no locking of its own.
type Store interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current extent in bytes.
	Size() int64
	// Truncate sets the extent; growing zero-fills.
	Truncate(int64) error
	// Sync flushes buffered state to durable storage where applicable.
	Sync() error
}

// MemStore is an in-memory Store. The zero value is an empty store ready
// to use.
type MemStore struct {
	buf []byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// ReadAt implements io.ReaderAt. Reads beyond the extent return io.EOF
// after the available bytes, matching os.File semantics.
func (m *MemStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("hdf5: negative read offset %d", off)
	}
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the store as needed.
func (m *MemStore) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("hdf5: negative write offset %d", off)
	}
	end := off + int64(len(p))
	if n := end - int64(len(m.buf)); n > 0 {
		// append's amortised growth: extending the store write by write
		// must not copy it whole each time.
		m.buf = append(m.buf, make([]byte, n)...)
	}
	copy(m.buf[off:end], p)
	return len(p), nil
}

// Size returns the store extent.
func (m *MemStore) Size() int64 { return int64(len(m.buf)) }

// Truncate sets the extent.
func (m *MemStore) Truncate(n int64) error {
	if n < 0 {
		return fmt.Errorf("hdf5: negative truncate %d", n)
	}
	if n <= int64(len(m.buf)) {
		m.buf = m.buf[:n]
	} else {
		grown := make([]byte, n)
		copy(grown, m.buf)
		m.buf = grown
	}
	return nil
}

// Sync is a no-op for memory.
func (m *MemStore) Sync() error { return nil }

// FileStore is a Store over an *os.File.
type FileStore struct {
	f *os.File
}

// CreateFileStore creates (truncating) the named file.
func CreateFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("hdf5: create store: %w", err)
	}
	return &FileStore{f: f}, nil
}

// OpenFileStore opens the named file read-write.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("hdf5: open store: %w", err)
	}
	return &FileStore{f: f}, nil
}

// ReadAt implements io.ReaderAt.
func (s *FileStore) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (s *FileStore) WriteAt(p []byte, off int64) (int, error) { return s.f.WriteAt(p, off) }

// Size returns the file size.
func (s *FileStore) Size() int64 {
	fi, err := s.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Truncate sets the file size.
func (s *FileStore) Truncate(n int64) error { return s.f.Truncate(n) }

// Sync fsyncs the file.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// NullStore tracks the extent but discards all data; reads return zeros.
// Large-scale simulation runs use it so a 12,288-rank experiment does not
// materialize hundreds of gigabytes — the library still performs every
// allocation, layout, and metadata computation it would against a real
// store. Metadata durability is obviously lost: files on a NullStore
// cannot be re-opened.
type NullStore struct {
	size int64
}

// NewNullStore returns an empty discarding store.
func NewNullStore() *NullStore { return &NullStore{} }

// ReadAt returns zeros within the extent.
func (n *NullStore) ReadAt(p []byte, off int64) (int, error) {
	size := n.size
	if off >= size {
		return 0, io.EOF
	}
	avail := size - off
	k := int64(len(p))
	if k > avail {
		k = avail
	}
	for i := int64(0); i < k; i++ {
		p[i] = 0
	}
	if k < int64(len(p)) {
		return int(k), io.EOF
	}
	return int(k), nil
}

// WriteAt discards data, extending the tracked size.
func (n *NullStore) WriteAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > n.size {
		n.size = end
	}
	return len(p), nil
}

// Size returns the tracked extent.
func (n *NullStore) Size() int64 { return n.size }

// Truncate sets the tracked extent.
func (n *NullStore) Truncate(sz int64) error {
	n.size = sz
	return nil
}

// Sync is a no-op.
func (n *NullStore) Sync() error { return nil }

// ErrClosed is returned by operations on a closed File.
var ErrClosed = errors.New("hdf5: file closed")

// ErrNotFound is returned when a named link does not exist.
var ErrNotFound = errors.New("hdf5: object not found")

// ErrExists is returned when creating a link that already exists.
var ErrExists = errors.New("hdf5: object already exists")

// ErrCorrupt is returned when on-disk metadata fails validation.
var ErrCorrupt = errors.New("hdf5: corrupt metadata")
