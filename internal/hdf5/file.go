package hdf5

import (
	"asyncio/internal/vclock"
	"fmt"
)

const (
	superMagic   = "\x89AHD\r\n\x1a\n" // HDF5-style signature, 8 bytes
	superVersion = 1
	superSize    = 64 // reserved superblock region at offset 0
)

// File is an open container. One File may be shared by many simulated
// ranks of one run; time charges (metadata operations, the store sync)
// are made after the bookkeeping they pay for, so another rank that
// runs while the payer sleeps sees the file consistent.
type File struct {
	store  Store
	driver Driver
	eof    int64
	root   *object
	closed bool
}

// FileOption configures Create and Open.
type FileOption func(*File)

// WithDriver attaches a timing driver (see Driver). The default is
// NopDriver.
func WithDriver(d Driver) FileOption {
	return func(f *File) { f.driver = d }
}

// Create initializes a fresh container on store, destroying any previous
// content.
func Create(store Store, opts ...FileOption) (*File, error) {
	f := &File{store: store, driver: NopDriver{}, eof: superSize}
	for _, o := range opts {
		o(f)
	}
	if err := store.Truncate(0); err != nil {
		return nil, fmt.Errorf("hdf5: create: %w", err)
	}
	f.root = &object{f: f, kind: kindGroup, links: newLinkTable()}
	return f, nil
}

// Open loads an existing container from store.
func Open(store Store, opts ...FileOption) (*File, error) {
	f := &File{store: store, driver: NopDriver{}}
	for _, o := range opts {
		o(f)
	}
	hdr := make([]byte, superSize)
	if _, err := store.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("hdf5: open: reading superblock: %w", err)
	}
	// Superblock layout: magic(8) version(1) rootAddr(8) eof(8) crc(4).
	const sbLen = 8 + 1 + 8 + 8 + 4
	payload, err := verifyChecksum(hdr[:sbLen])
	if err != nil {
		return nil, fmt.Errorf("hdf5: open: %w", err)
	}
	r := newReader(payload)
	if string(r.take(8)) != superMagic {
		return nil, fmt.Errorf("%w: bad superblock signature", ErrCorrupt)
	}
	if v := r.u8(); v != superVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	rootAddr := int64(r.u64())
	f.eof = int64(r.u64())
	if r.err != nil {
		return nil, r.err
	}
	root, err := f.loadObject(rootAddr)
	if err != nil {
		return nil, fmt.Errorf("hdf5: open: loading root group: %w", err)
	}
	if root.kind != kindGroup {
		return nil, fmt.Errorf("%w: root object is not a group", ErrCorrupt)
	}
	f.root = root
	f.root.addr = rootAddr
	return f, nil
}

// Root returns the root group ("/").
func (f *File) Root() *Group { return &Group{o: f.root, path: "/"} }

// alloc reserves n bytes and returns their address. Space is never
// reclaimed (like classic HDF5 without repacking); flushed metadata is
// rewritten at fresh addresses.
func (f *File) alloc(n int64) int64 {
	addr := f.eof
	f.eof += n
	return addr
}

// Flush serializes all loaded metadata and the superblock to the store.
// The time cost is charged as one metadata operation per flushed object;
// the store sync — the fsync barrier — follows, and a ProcSyncer store
// sleeps the flushing process for its modeled cost.
func (f *File) Flush(tp *TransferProps) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	nops, err := f.flushMeta()
	f.chargeMeta(tp, nops)
	if err != nil {
		return err
	}
	return f.syncStore(tp)
}

// ProcSyncer is a Store whose fsync carries a modeled time cost charged
// to the flushing process (pfs.DurableStore). Plain stores fall back to
// the uncharged Sync.
type ProcSyncer interface {
	SyncOn(p *vclock.Proc) error
}

// syncStore issues the store's durability barrier on behalf of tp.
func (f *File) syncStore(tp *TransferProps) error {
	if ps, ok := f.store.(ProcSyncer); ok {
		return ps.SyncOn(tp.proc())
	}
	return f.store.Sync()
}

// flushMeta writes all metadata and returns how many metadata
// operations to charge; the store sync is the caller's job.
func (f *File) flushMeta() (int, error) {
	nops := 0
	if err := f.writeObject(f.root, &nops); err != nil {
		return nops, err
	}
	w := &writer{}
	w.bytes([]byte(superMagic))
	w.u8(superVersion)
	w.u64(uint64(f.root.addr))
	w.u64(uint64(f.eof))
	w.checksum()
	nops++
	if _, err := f.store.WriteAt(w.buf, 0); err != nil {
		return nops, fmt.Errorf("hdf5: flush superblock: %w", err)
	}
	return nops, nil
}

func (f *File) chargeMeta(tp *TransferProps, n int) {
	for i := 0; i < n; i++ {
		f.driver.MetaOp(tp.proc())
	}
}

// ChargeMetaOps charges n metadata operations to the file's driver on
// behalf of tp. Asynchronous connectors use it to move metadata charges
// from the calling process to their background stream.
func (f *File) ChargeMetaOps(tp *TransferProps, n int) {
	f.chargeMeta(tp, n)
}

// writeObject serializes o and all its loaded descendants (post-order,
// so parents embed fresh child addresses), counting metadata operations
// in nops.
func (f *File) writeObject(o *object, nops *int) error {
	if o.kind == kindGroup {
		var err error
		o.links.Ascend(func(_ string, l *link) bool {
			if l.obj != nil {
				if err = f.writeObject(l.obj, nops); err != nil {
					return false
				}
				l.addr = l.obj.addr
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	buf := o.encode()
	// Prefix with total length so readers know how much to fetch.
	w := &writer{}
	w.u32(uint32(len(buf)))
	w.bytes(buf)
	o.addr = f.alloc(int64(len(w.buf)))
	*nops++
	if _, err := f.store.WriteAt(w.buf, o.addr); err != nil {
		return fmt.Errorf("hdf5: write object header: %w", err)
	}
	return nil
}

// loadObject reads and decodes the object header at addr.
func (f *File) loadObject(addr int64) (*object, error) {
	var lenBuf [4]byte
	if _, err := f.store.ReadAt(lenBuf[:], addr); err != nil {
		return nil, fmt.Errorf("hdf5: read object length at %d: %w", addr, err)
	}
	n := int64(newReader(lenBuf[:]).u32())
	if n <= 0 || n > 1<<30 {
		return nil, fmt.Errorf("%w: implausible object header size %d", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := f.store.ReadAt(buf, addr+4); err != nil {
		return nil, fmt.Errorf("hdf5: read object header at %d: %w", addr, err)
	}
	o, err := decodeObject(f, buf)
	if err != nil {
		return nil, err
	}
	o.addr = addr
	return o, nil
}

// Close flushes metadata and marks the file closed. The Store is not
// closed; the caller owns it.
func (f *File) Close(tp *TransferProps) error {
	if f.closed {
		return nil
	}
	nops, err := f.flushMeta()
	if err == nil {
		f.closed = true
	}
	f.chargeMeta(tp, nops)
	if err != nil {
		return err
	}
	return f.syncStore(tp)
}

// Store returns the backing store, e.g. to re-open the container after
// Close.
func (f *File) Store() Store { return f.store }

// Closed reports whether the file has been closed.
func (f *File) Closed() bool { return f.closed }

func (f *File) checkOpen() error {
	if f.closed {
		return ErrClosed
	}
	return nil
}
