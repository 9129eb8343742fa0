package vol

import (
	"errors"

	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
	"asyncio/internal/vclock"
)

// defaultPipeline executes dataset I/O synchronously: validate →
// resolve → execute. Stateless, so one instance serves every Native
// connector that doesn't override it.
var defaultPipeline = ioreq.New()

// Native is the pass-through connector: every operation executes
// synchronously on the calling process, exactly like stock HDF5 without
// the async VOL loaded. The zero value is usable.
type Native struct {
	// Pipeline overrides the dataset data path. Nil uses the shared
	// default (validate → resolve → execute). Supplying e.g.
	// ioreq.New(ioreq.NewAgg(cfg)) — one instance shared by all ranks —
	// turns on collective write aggregation; the pipeline is flushed on
	// file Flush and Close.
	Pipeline *ioreq.Pipeline
	// OnClose, when non-nil, runs on the caller after a successful file
	// Close — the session-consistency publish point for the synchronous
	// path.
	OnClose func(p *vclock.Proc)
}

func (n Native) pipeline() *ioreq.Pipeline {
	if n.Pipeline != nil {
		return n.Pipeline
	}
	return defaultPipeline
}

// Create implements Connector.
func (n Native) Create(pr Props, store hdf5.Store, opts ...hdf5.FileOption) (File, error) {
	f, err := hdf5.Create(store, opts...)
	if err != nil {
		return nil, err
	}
	return nativeFile{f: f, pl: n.pipeline(), onClose: n.OnClose}, nil
}

// Wrap implements Connector.
func (n Native) Wrap(f *hdf5.File) File {
	return nativeFile{f: f, pl: n.pipeline(), onClose: n.OnClose}
}

type nativeFile struct {
	f       *hdf5.File
	pl      *ioreq.Pipeline
	onClose func(p *vclock.Proc)
}

func (nf nativeFile) Root() Group { return nativeGroup{g: nf.f.Root(), pl: nf.pl} }

// Flush dispatches any writes buffered in the data pipeline (e.g. an
// aggregation stage's partial chains), then flushes metadata.
func (nf nativeFile) Flush(pr Props) error {
	if err := nf.pl.Flush(pr.Proc); err != nil {
		return err
	}
	return nf.f.Flush(pr.TP())
}

// Close flushes the data pipeline, then closes the container. The file
// is closed even when the pipeline flush fails, so a dispatch error
// cannot leak the handle.
func (nf nativeFile) Close(pr Props) error {
	perr := nf.pl.Flush(pr.Proc)
	cerr := nf.f.Close(pr.TP())
	if err := errors.Join(perr, cerr); err != nil {
		return err
	}
	if nf.onClose != nil {
		nf.onClose(pr.Proc)
	}
	return nil
}

type nativeGroup struct {
	g  *hdf5.Group
	pl *ioreq.Pipeline
}

func (ng nativeGroup) CreateGroup(pr Props, name string) (Group, error) {
	g, err := ng.g.CreateGroup(pr.TP(), name)
	if err != nil {
		return nil, err
	}
	return nativeGroup{g: g, pl: ng.pl}, nil
}

func (ng nativeGroup) OpenGroup(pr Props, path string) (Group, error) {
	g, err := ng.g.OpenGroup(pr.TP(), path)
	if err != nil {
		return nil, err
	}
	return nativeGroup{g: g, pl: ng.pl}, nil
}

func (ng nativeGroup) CreateDataset(pr Props, name string, dtype hdf5.Datatype, space *hdf5.Dataspace, props *hdf5.CreateProps) (Dataset, error) {
	d, err := ng.g.CreateDataset(pr.TP(), name, dtype, space, props)
	if err != nil {
		return nil, err
	}
	return nativeDataset{d: d, pl: ng.pl}, nil
}

func (ng nativeGroup) OpenDataset(pr Props, path string) (Dataset, error) {
	d, err := ng.g.OpenDataset(pr.TP(), path)
	if err != nil {
		return nil, err
	}
	return nativeDataset{d: d, pl: ng.pl}, nil
}

func (ng nativeGroup) SetAttrInt64(pr Props, name string, v int64) error {
	return ng.g.SetAttrInt64(pr.TP(), name, v)
}

// nativeDataset routes every data operation through the connector's
// ioreq pipeline: the operation is constructed as a Request once, and
// validation, resolution, optional aggregation, and the store dispatch
// are pipeline stages.
type nativeDataset struct {
	d  *hdf5.Dataset
	pl *ioreq.Pipeline
}

func (nd nativeDataset) request(op ioreq.Op, pr Props, fspace *hdf5.Dataspace, buf []byte) *ioreq.Request {
	return &ioreq.Request{
		Op:      op,
		Dataset: nd.d,
		Space:   fspace,
		Buf:     buf,
		Proc:    pr.Proc,
		Span:    pr.Span,
	}
}

func (nd nativeDataset) Write(pr Props, fspace *hdf5.Dataspace, buf []byte) error {
	return nd.pl.Do(nd.request(ioreq.OpWrite, pr, fspace, buf))
}

func (nd nativeDataset) Read(pr Props, fspace *hdf5.Dataspace, buf []byte) error {
	return nd.pl.Do(nd.request(ioreq.OpRead, pr, fspace, buf))
}

func (nd nativeDataset) WriteDiscard(pr Props, fspace *hdf5.Dataspace) error {
	return nd.pl.Do(nd.request(ioreq.OpWriteNull, pr, fspace, nil))
}

func (nd nativeDataset) ReadDiscard(pr Props, fspace *hdf5.Dataspace) error {
	return nd.pl.Do(nd.request(ioreq.OpReadNull, pr, fspace, nil))
}

// Prefetch is a no-op for the synchronous connector.
func (nd nativeDataset) Prefetch(Props, *hdf5.Dataspace) error { return nil }

func (nd nativeDataset) Dtype() hdf5.Datatype  { return nd.d.Dtype() }
func (nd nativeDataset) NBytes() int64         { return nd.d.NBytes() }
func (nd nativeDataset) Unwrap() *hdf5.Dataset { return nd.d }
