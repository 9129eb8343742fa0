// Package vol defines the Virtual Object Layer: the interception point
// between the HDF5-style public API and its storage implementation,
// mirroring HDF5's VOL architecture (§II-A of the paper). A Connector
// decides how each file, group, and dataset operation executes; the
// Native connector passes straight through synchronously, while
// internal/asyncvol implements the asynchronous background-thread
// connector under evaluation.
//
// Applications program against the vol interfaces, so switching between
// synchronous and asynchronous I/O is a one-line connector swap — the
// transparency property the paper's methodology depends on.
package vol

import (
	"asyncio/internal/hdf5"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
)

// Props carries per-call context, like HDF5's access/transfer property
// lists: the acting virtual-clock process, an optional event set for
// asynchronous completion tracking (the H5ES analog), and an optional
// trace span the operation's request will carry through the pipeline.
type Props struct {
	Proc *vclock.Proc
	Set  EventSet
	Span *trace.Span
}

// TP converts to the hdf5 layer's transfer props.
func (pr Props) TP() *hdf5.TransferProps {
	return &hdf5.TransferProps{Proc: pr.Proc, Span: pr.Span}
}

// EventSet tracks in-flight asynchronous operations. Wait blocks until
// every tracked operation completes and returns the first error.
type EventSet interface {
	Wait(p *vclock.Proc) error
}

// Connector creates file handles bound to one I/O strategy.
type Connector interface {
	// Create initializes a fresh container on store.
	Create(pr Props, store hdf5.Store, opts ...hdf5.FileOption) (File, error)
	// Wrap adopts an already-open hdf5 file. In the simulation many
	// ranks share one file object (they would share one file through
	// the parallel file system); each rank wraps it through its own
	// connector.
	Wrap(f *hdf5.File) File
}

// File is a connector-mediated open container.
type File interface {
	Root() Group
	Flush(pr Props) error
	// Close completes outstanding asynchronous work for this handle and
	// closes the container (idempotent across sharing ranks).
	Close(pr Props) error
}

// Group is a connector-mediated group handle.
type Group interface {
	CreateGroup(pr Props, name string) (Group, error)
	OpenGroup(pr Props, path string) (Group, error)
	CreateDataset(pr Props, name string, dtype hdf5.Datatype, space *hdf5.Dataspace, props *hdf5.CreateProps) (Dataset, error)
	OpenDataset(pr Props, path string) (Dataset, error)
	SetAttrInt64(pr Props, name string, v int64) error
}

// Dataset is a connector-mediated dataset handle.
type Dataset interface {
	// Write stores buf into the selection. Asynchronous connectors
	// return once the operation is staged; completion is tracked by
	// pr.Set.
	Write(pr Props, fspace *hdf5.Dataspace, buf []byte) error
	// Read fills buf from the selection. Asynchronous connectors serve
	// it from a prefetched staging buffer when one matches.
	Read(pr Props, fspace *hdf5.Dataspace, buf []byte) error
	// WriteDiscard charges a write of the selection without moving
	// bytes — for full-scale timing runs where materializing buffers
	// across tens of thousands of ranks is impossible. Chunk allocation
	// happens exactly as in Write.
	WriteDiscard(pr Props, fspace *hdf5.Dataspace) error
	// ReadDiscard charges a read of the selection without moving bytes.
	ReadDiscard(pr Props, fspace *hdf5.Dataspace) error
	// Prefetch hints that the selection will be read soon; asynchronous
	// connectors stage it in the background, synchronous connectors
	// ignore it.
	Prefetch(pr Props, fspace *hdf5.Dataspace) error
	Dtype() hdf5.Datatype
	NBytes() int64
	// Unwrap exposes the underlying hdf5 dataset.
	Unwrap() *hdf5.Dataset
}
