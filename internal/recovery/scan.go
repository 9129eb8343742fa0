package recovery

import (
	"bytes"
	"fmt"

	"asyncio/internal/hdf5"
)

// Class is the post-crash disposition of one journaled write.
type Class uint8

const (
	// ClassCommitted: the surviving image already holds the journaled
	// bytes in full.
	ClassCommitted Class = iota
	// ClassTorn: the image holds a different (partial or stale) version
	// of the extent; with a payload on record it is replayable.
	ClassTorn
	// ClassLost: the extent cannot be located at all — the dataset is
	// missing, unreadable, or its shape/type no longer matches.
	ClassLost
	// ClassUnverified: the record carries no payload, so the extent can
	// be located but not checked or replayed.
	ClassUnverified
)

// RecordOutcome is the scanner's verdict on one journal record.
type RecordOutcome struct {
	Seq      uint64
	Path     string
	Bytes    int64
	Class    Class
	Replayed bool
	// Detail explains non-committed verdicts ("dataset missing", the
	// read error, ...).
	Detail string
}

// Report summarizes a post-crash scan.
type Report struct {
	Outcomes []RecordOutcome

	Committed, Torn, Lost, Unverified int
	Replayed                          int

	// JournalError is non-empty when the log itself was torn; records
	// before the tear are still scanned.
	JournalError string
	// ImageError is non-empty when the file image could not be opened
	// (e.g. the superblock was never flushed); every record is then
	// classified lost.
	ImageError string
}

// Summary renders a one-line human-readable digest.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d committed, %d torn (%d replayed), %d lost, %d unverified",
		r.Committed, r.Torn, r.Replayed, r.Lost, r.Unverified)
}

// Clean reports whether every journaled write survived or was restored:
// no lost extents and no torn extents left unreplayed.
func (r *Report) Clean() bool {
	return r.Lost == 0 && r.Torn == r.Replayed && r.ImageError == ""
}

func (r *Report) add(o RecordOutcome) {
	switch o.Class {
	case ClassCommitted:
		r.Committed++
	case ClassTorn:
		r.Torn++
		if o.Replayed {
			r.Replayed++
		}
	case ClassLost:
		r.Lost++
	case ClassUnverified:
		r.Unverified++
	}
	r.Outcomes = append(r.Outcomes, o)
}

// ScanOptions configures Scan.
type ScanOptions struct {
	// Replay writes each torn record's payload back into the image, in
	// journal order, and flushes the container afterwards.
	Replay bool
}

// maxPointReplay bounds the per-element selection fallback used for
// datasets of rank > 1, where a linear run is not a hyperslab. Larger
// runs on such datasets are reported unverified rather than scanned one
// element at a time.
const maxPointReplay = 1 << 16

// Scan checks a journal against a post-crash file image and classifies
// every record. Records are processed in journal order, so with Replay
// set the image converges to the last journaled version of every extent
// even when records overlap (an earlier overwritten record classifies
// as torn, then the later record restores the final bytes). Scan never
// panics on corrupt input: a torn log tail or unopenable image is
// reported in the corresponding Report field.
func Scan(journal []byte, store hdf5.Store, opts ScanOptions) *Report {
	rep := &Report{}
	recs, jerr := DecodeJournal(journal)
	if jerr != nil {
		rep.JournalError = jerr.Error()
	}
	if len(recs) == 0 {
		return rep
	}
	f, err := hdf5.Open(store)
	if err != nil {
		rep.ImageError = err.Error()
		for i := range recs {
			rep.add(RecordOutcome{
				Seq: recs[i].Seq, Path: recs[i].Path, Bytes: recs[i].NBytes(),
				Class: ClassLost, Detail: "image unopenable",
			})
		}
		return rep
	}
	replayed := false
	for i := range recs {
		o := scanRecord(f, &recs[i], opts.Replay)
		replayed = replayed || o.Replayed
		rep.add(o)
	}
	if replayed {
		// Make the restored bytes part of the image. Flush errors are
		// surfaced as an image problem; the classification stands.
		if err := f.Flush(nil); err != nil && rep.ImageError == "" {
			rep.ImageError = fmt.Sprintf("flushing replayed writes: %v", err)
		}
	}
	return rep
}

// scanRecord classifies one record against the open image.
func scanRecord(f *hdf5.File, rec *Record, replay bool) RecordOutcome {
	o := RecordOutcome{Seq: rec.Seq, Path: rec.Path, Bytes: rec.NBytes()}
	verdict := func(c Class, format string, args ...any) RecordOutcome {
		o.Class, o.Detail = c, fmt.Sprintf(format, args...)
		return o
	}
	ds, err := f.Root().OpenDataset(nil, rec.Path)
	if err != nil {
		return verdict(ClassLost, "opening dataset: %v", err)
	}
	if got := ds.Dtype().Size; got != rec.ElemSize {
		return verdict(ClassLost, "element size %d on disk, %d journaled", got, rec.ElemSize)
	}
	if rec.Payload == nil {
		o.Class = ClassUnverified
		return o
	}
	// Read the journaled extents back and compare run by run.
	cursor := 0
	torn := false
	for _, run := range rec.Runs {
		runBytes := int(run.N) * int(rec.ElemSize)
		want := rec.Payload[cursor : cursor+runBytes]
		cursor += runBytes
		got := make([]byte, runBytes)
		sel, selErr := runSelection(ds, run)
		if selErr != nil {
			return verdict(ClassUnverified, "%v", selErr)
		}
		if err := ds.Read(nil, sel, got); err != nil {
			return verdict(ClassLost, "reading [%d,+%d): %v", run.Off, run.N, err)
		}
		if !bytes.Equal(got, want) {
			torn = true
		}
	}
	if !torn {
		o.Class = ClassCommitted
		return o
	}
	o.Class = ClassTorn
	if !replay {
		return o
	}
	cursor = 0
	for _, run := range rec.Runs {
		runBytes := int(run.N) * int(rec.ElemSize)
		part := rec.Payload[cursor : cursor+runBytes]
		cursor += runBytes
		sel, selErr := runSelection(ds, run)
		if selErr != nil {
			o.Detail = selErr.Error()
			return o
		}
		if err := ds.Write(nil, sel, part); err != nil {
			o.Detail = fmt.Sprintf("replaying [%d,+%d): %v", run.Off, run.N, err)
			return o
		}
	}
	o.Replayed = true
	return o
}

// runSelection builds a file-space selection covering one linear
// element run. Rank-1 datasets use a hyperslab; higher ranks fall back
// to an explicit point list (bounded by maxPointReplay) because an
// arbitrary linear run is not a hyperslab in row-major N-D space.
func runSelection(ds *hdf5.Dataset, run Run) (*hdf5.Dataspace, error) {
	space := ds.Space()
	dims := space.Dims()
	if len(dims) == 1 {
		if err := space.SelectHyperslab([]uint64{run.Off}, nil, []uint64{run.N}, nil); err != nil {
			return nil, fmt.Errorf("selecting [%d,+%d): %w", run.Off, run.N, err)
		}
		return space, nil
	}
	if run.N > maxPointReplay {
		return nil, fmt.Errorf("run of %d elements on rank-%d dataset exceeds point-selection limit %d",
			run.N, len(dims), maxPointReplay)
	}
	points := make([][]uint64, 0, run.N)
	for i := uint64(0); i < run.N; i++ {
		points = append(points, unflatten(run.Off+i, dims))
	}
	if err := space.SelectPoints(points); err != nil {
		return nil, fmt.Errorf("selecting %d points: %w", len(points), err)
	}
	return space, nil
}

// unflatten converts a row-major linear element index to coordinates.
func unflatten(idx uint64, dims []uint64) []uint64 {
	coord := make([]uint64, len(dims))
	for d := len(dims) - 1; d >= 0; d-- {
		coord[d] = idx % dims[d]
		idx /= dims[d]
	}
	return coord
}
