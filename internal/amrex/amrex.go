// Package amrex is a compact analog of the AMReX block-structured AMR
// framework's data model, sufficient to reproduce the I/O footprint of
// Nyx and Castro (§IV-C): boxes (index-space rectangles), box arrays
// produced by domain chopping, multifabs (distributed multi-component
// fab data), and an HDF5 plotfile writer that lays box data out
// sequentially in a single per-level dataset, as AMReX's HDF5 plotfile
// format does.
package amrex

import (
	"fmt"

	"asyncio/internal/hdf5"
	"asyncio/internal/vol"
)

// Box is a 3-D index-space rectangle: Lo inclusive, Hi exclusive.
type Box struct {
	Lo, Hi [3]int
}

// NumCells returns the cell count of the box.
func (b Box) NumCells() int64 {
	n := int64(1)
	for d := 0; d < 3; d++ {
		if b.Hi[d] <= b.Lo[d] {
			return 0
		}
		n *= int64(b.Hi[d] - b.Lo[d])
	}
	return n
}

// DomainBox returns the box [0,n)³ for a cubic domain.
func DomainBox(n int) Box {
	return Box{Hi: [3]int{n, n, n}}
}

// BoxArray is a disjoint set of boxes covering a domain.
type BoxArray struct {
	Boxes []Box
}

// AutoMaxGrid picks the largest power-of-two-ish grid size (halving from
// dim, floored at 4) that chops a dim³ domain into at least nranks
// boxes, so every rank owns work — the effect of AMReX's max_grid_size
// plus load-balancing defaults as jobs scale out.
func AutoMaxGrid(dim, nranks int) int {
	if dim < 4 {
		return dim
	}
	mg := dim
	for mg > 4 {
		n := (dim + mg - 1) / mg
		if n*n*n >= nranks {
			return mg
		}
		mg /= 2
	}
	return mg
}

// ChopDomain splits domain into blocks of at most maxGrid cells per
// side, the standard AMReX max_grid_size decomposition.
func ChopDomain(domain Box, maxGrid int) BoxArray {
	if maxGrid <= 0 {
		panic(fmt.Sprintf("amrex: maxGrid %d must be positive", maxGrid))
	}
	var ba BoxArray
	for x := domain.Lo[0]; x < domain.Hi[0]; x += maxGrid {
		for y := domain.Lo[1]; y < domain.Hi[1]; y += maxGrid {
			for z := domain.Lo[2]; z < domain.Hi[2]; z += maxGrid {
				b := Box{
					Lo: [3]int{x, y, z},
					Hi: [3]int{
						min(x+maxGrid, domain.Hi[0]),
						min(y+maxGrid, domain.Hi[1]),
						min(z+maxGrid, domain.Hi[2]),
					},
				}
				ba.Boxes = append(ba.Boxes, b)
			}
		}
	}
	return ba
}

// MultiFab is a distributed multi-component field over a BoxArray. The
// distribution assigns balanced blocks of consecutive boxes to each
// rank, matching how AMReX's HDF5 plotfile writer lays data out: every
// rank's boxes occupy one contiguous region of the flattened per-level
// dataset, so a plotfile write is a single large request per rank. The
// request size therefore shrinks with the rank count under strong
// scaling — the effect driving Figs. 4 and 6.
type MultiFab struct {
	BA    BoxArray
	NComp int
	owner []int
	// offsets[i] is the element offset (cells × ncomp) of box i in the
	// plotfile's flattened per-level dataset.
	offsets []uint64
	total   uint64
}

// NewMultiFab distributes ba over nranks.
func NewMultiFab(ba BoxArray, ncomp, nranks int) *MultiFab {
	if ncomp <= 0 || nranks <= 0 {
		panic(fmt.Sprintf("amrex: invalid multifab ncomp=%d nranks=%d", ncomp, nranks))
	}
	mf := &MultiFab{BA: ba, NComp: ncomp}
	mf.owner = make([]int, len(ba.Boxes))
	mf.offsets = make([]uint64, len(ba.Boxes))
	var off uint64
	for i, b := range ba.Boxes {
		mf.owner[i] = i * nranks / len(ba.Boxes) // balanced contiguous blocks
		mf.offsets[i] = off
		off += uint64(b.NumCells()) * uint64(ncomp)
	}
	mf.total = off
	return mf
}

// LocalBoxes returns the indices of boxes owned by rank.
func (mf *MultiFab) LocalBoxes(rank int) []int {
	var out []int
	for i, r := range mf.owner {
		if r == rank {
			out = append(out, i)
		}
	}
	return out
}

// BoxSelection returns the 1-D hyperslab of box bi within the flattened
// per-level dataset.
func (mf *MultiFab) BoxSelection(bi int) (*hdf5.Dataspace, error) {
	sp, err := hdf5.NewSimple(mf.total)
	if err != nil {
		return nil, err
	}
	n := uint64(mf.BA.Boxes[bi].NumCells()) * uint64(mf.NComp)
	if err := sp.SelectHyperslab([]uint64{mf.offsets[bi]}, nil, []uint64{1}, []uint64{n}); err != nil {
		return nil, err
	}
	return sp, nil
}

// LocalRange returns the contiguous element range [start, start+n) that
// rank's boxes occupy in the flattened per-level dataset. n is 0 when
// the rank owns no boxes (more ranks than boxes).
func (mf *MultiFab) LocalRange(rank int) (start, n uint64) {
	first := -1
	for i, r := range mf.owner {
		if r == rank {
			if first < 0 {
				first = i
			}
			n += uint64(mf.BA.Boxes[i].NumCells()) * uint64(mf.NComp)
		}
	}
	if first < 0 {
		return 0, 0
	}
	return mf.offsets[first], n
}

// PlotfileName names the HDF5 plotfile group for a step, AMReX-style.
func PlotfileName(step int) string { return fmt.Sprintf("plt%05d", step) }

// WritePlotfile writes one plotfile for the multifab: rank 0 creates the
// level group, its metadata attributes, and the flattened level dataset;
// then every rank writes its boxes' segments. Returns this rank's bytes.
// barrier must synchronize ranks between metadata creation and data
// writes; it is injected so this package stays MPI-agnostic.
func WritePlotfile(pr vol.Props, f vol.File, step, rank int, mf *MultiFab, materialize bool, barrier func()) (int64, error) {
	if rank == 0 {
		g, err := f.Root().CreateGroup(pr, PlotfileName(step))
		if err != nil {
			return 0, err
		}
		if err := g.SetAttrInt64(pr, "step", int64(step)); err != nil {
			return 0, err
		}
		if err := g.SetAttrInt64(pr, "ncomp", int64(mf.NComp)); err != nil {
			return 0, err
		}
		if err := g.SetAttrInt64(pr, "nboxes", int64(len(mf.BA.Boxes))); err != nil {
			return 0, err
		}
		lvl, err := g.CreateGroup(pr, "level_0")
		if err != nil {
			return 0, err
		}
		space := hdf5.MustSimple(mf.total)
		if _, err := lvl.CreateDataset(pr, "data:datatype=0", hdf5.F64, space, nil); err != nil {
			return 0, err
		}
	}
	barrier()

	ds, err := f.Root().OpenDataset(pr, PlotfileName(step)+"/level_0/data:datatype=0")
	if err != nil {
		return 0, err
	}
	// Aggregated write: the rank's boxes are contiguous in the file, so
	// the whole local contribution moves in one request — as AMReX's
	// HDF5 writer does after gathering its local fabs.
	start, n := mf.LocalRange(rank)
	if n == 0 {
		return 0, nil
	}
	sel, err := hdf5.NewSimple(mf.total)
	if err != nil {
		return 0, err
	}
	if err := sel.SelectHyperslab([]uint64{start}, nil, []uint64{1}, []uint64{n}); err != nil {
		return 0, err
	}
	nbytes := int64(n) * 8
	if materialize {
		buf := make([]byte, nbytes)
		for _, bi := range mf.LocalBoxes(rank) {
			boxBytes := mf.BA.Boxes[bi].NumCells() * int64(mf.NComp) * 8
			boxStart := (mf.offsets[bi] - start) * 8
			fillBox(buf[boxStart:boxStart+uint64(boxBytes)], step, bi)
		}
		if err := ds.Write(pr, sel, buf); err != nil {
			return 0, err
		}
	} else if err := ds.WriteDiscard(pr, sel); err != nil {
		return 0, err
	}
	return nbytes, nil
}

// fillBox writes a recognizable pattern for correctness tests.
func fillBox(buf []byte, step, bi int) {
	v := byte(step*31 + bi + 1)
	for i := range buf {
		buf[i] = v
	}
}

// ExpectedBoxByte returns the pattern byte for (step, box).
func ExpectedBoxByte(step, bi int) byte { return byte(step*31 + bi + 1) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
