package hdf5

import (
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
)

// Driver charges virtual time for the I/O a File performs. The library
// separates byte movement (always real, through the Store) from time
// (charged here), so the same code runs as a plain storage library with
// NopDriver or inside the discrete-event simulation with a file-system
// model driver (see internal/pfs).
//
// Calls receive the acting process from the operation's TransferProps;
// a nil process means "untimed" and implementations must treat it as a
// no-op.
type Driver interface {
	// WriteData charges the time to move nbytes from memory to storage.
	WriteData(p *vclock.Proc, nbytes int64)
	// ReadData charges the time to move nbytes from storage to memory.
	ReadData(p *vclock.Proc, nbytes int64)
	// MetaOp charges one metadata round trip (create/open/attribute).
	MetaOp(p *vclock.Proc)
}

// FallibleDriver is optionally implemented by drivers whose charges can
// fail — fault injection makes internal/pfs targets return transient
// errors and outages. When the file's driver implements it, the library
// routes data charges through these entry points and propagates the
// error to the caller; sp, when non-nil, receives the transfer's trace
// events. The time charged on success must be identical to the plain
// Driver path.
type FallibleDriver interface {
	TryWriteData(p *vclock.Proc, nbytes int64, sp *trace.Span) error
	TryReadData(p *vclock.Proc, nbytes int64, sp *trace.Span) error
}

// NopDriver charges nothing; it is the default for plain library use.
type NopDriver struct{}

// WriteData implements Driver.
func (NopDriver) WriteData(*vclock.Proc, int64) {}

// ReadData implements Driver.
func (NopDriver) ReadData(*vclock.Proc, int64) {}

// MetaOp implements Driver.
func (NopDriver) MetaOp(*vclock.Proc) {}

// TransferProps parameterizes one data-transfer call, mirroring HDF5's
// dataset-transfer property list (DXPL). Proc identifies the acting
// virtual-clock process; nil performs the operation untimed. Span, when
// non-nil, receives trace events for the transfer and is forwarded to
// fallible drivers.
type TransferProps struct {
	Proc *vclock.Proc
	Span *trace.Span
}

// proc returns the acting process of tp, tolerating a nil receiver.
func (tp *TransferProps) proc() *vclock.Proc {
	if tp == nil {
		return nil
	}
	return tp.Proc
}

// span returns the trace span of tp, tolerating a nil receiver.
func (tp *TransferProps) span() *trace.Span {
	if tp == nil {
		return nil
	}
	return tp.Span
}

// chargeWrite charges a data write on d, preferring the fallible entry
// point — the only one that takes the span — when the driver has one.
func chargeWrite(d Driver, tp *TransferProps, nbytes int64) error {
	if fd, ok := d.(FallibleDriver); ok {
		return fd.TryWriteData(tp.proc(), nbytes, tp.span())
	}
	d.WriteData(tp.proc(), nbytes)
	return nil
}

// chargeRead is chargeWrite for reads.
func chargeRead(d Driver, tp *TransferProps, nbytes int64) error {
	if fd, ok := d.(FallibleDriver); ok {
		return fd.TryReadData(tp.proc(), nbytes, tp.span())
	}
	d.ReadData(tp.proc(), nbytes)
	return nil
}
