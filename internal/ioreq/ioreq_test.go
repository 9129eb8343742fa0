package ioreq_test

import (
	"bytes"
	"strings"
	"testing"

	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
	"asyncio/internal/metrics"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
)

// newDataset returns a fresh 1-D uint8 dataset of n elements backed by a
// MemStore (untimed — these tests exercise pipeline mechanics, not
// timing).
func newDataset(t *testing.T, n uint64) *hdf5.Dataset {
	t.Helper()
	f, err := hdf5.Create(hdf5.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Root().CreateDataset(nil, "x", hdf5.U8, hdf5.MustSimple(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// slab selects [off, off+n) of a 1-D extent of total elements.
func slab(t *testing.T, total, off, n uint64) *hdf5.Dataspace {
	t.Helper()
	sp, err := hdf5.NewSimple(total)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.SelectHyperslab([]uint64{off}, nil, []uint64{1}, []uint64{n}); err != nil {
		t.Fatal(err)
	}
	return sp
}

// recordStage logs its name on every Process call.
type recordStage struct {
	name string
	log  *[]string
}

func (s recordStage) Name() string { return s.name }

func (s recordStage) Process(req *ioreq.Request, next func(*ioreq.Request) error) error {
	*s.log = append(*s.log, s.name)
	return next(req)
}

func (s recordStage) Flush(*vclock.Proc, func(*ioreq.Request) error) error { return nil }

func TestPipelineStageOrdering(t *testing.T) {
	d := newDataset(t, 8)
	var log []string
	pl := ioreq.NewCustom(func(req *ioreq.Request) error {
		log = append(log, "terminal")
		return nil
	}, recordStage{"a", &log}, recordStage{"b", &log}, recordStage{"c", &log})
	if err := pl.Do(&ioreq.Request{Op: ioreq.OpWriteNull, Dataset: d}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "terminal"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestStandardPipelineStageNames(t *testing.T) {
	got := ioreq.New(ioreq.NewAgg(ioreq.AggConfig{MaxRequests: 2})).Stages()
	want := []string{"validate", "resolve", "aggregate"}
	if len(got) != len(want) {
		t.Fatalf("Stages() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Stages() = %v, want %v", got, want)
		}
	}
}

func TestValidateRejectsMalformedRequests(t *testing.T) {
	d := newDataset(t, 8)
	pl := ioreq.New()

	err := pl.Do(&ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Buf: make([]byte, 3)})
	if err == nil || !strings.Contains(err.Error(), "buffer") {
		t.Errorf("short buffer: err = %v, want buffer-size error", err)
	}

	bad, err := hdf5.NewSimple(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = pl.Do(&ioreq.Request{Op: ioreq.OpRead, Dataset: d, Space: bad, Buf: make([]byte, 8)})
	if err == nil || !strings.Contains(err.Error(), "rank") {
		t.Errorf("rank mismatch: err = %v, want rank error", err)
	}

	if err := pl.Do(&ioreq.Request{Op: ioreq.OpWriteNull}); err == nil {
		t.Error("nil dataset: err = nil, want error")
	}
}

func TestRequestContiguity(t *testing.T) {
	d := newDataset(t, 16)
	one := &ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Space: slab(t, 16, 4, 8)}
	if run, ok := one.Contiguous(); !ok || run.Off != 4 || run.N != 8 {
		t.Errorf("single slab: run=%+v contig=%v, want {4 8} true", run, ok)
	}

	strided, err := hdf5.NewSimple(16)
	if err != nil {
		t.Fatal(err)
	}
	// Two elements 8 apart: two runs.
	if err := strided.SelectHyperslab([]uint64{0}, []uint64{8}, []uint64{2}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	two := &ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Space: strided}
	if _, ok := two.Contiguous(); ok {
		t.Error("strided selection reported contiguous")
	}
}

func TestAggCoalescesAdjacentWrites(t *testing.T) {
	d := newDataset(t, 8)
	agg := ioreq.NewAgg(ioreq.AggConfig{MaxRequests: 2})
	dispatches := 0
	pl := ioreq.NewCustom(func(req *ioreq.Request) error {
		dispatches++
		return ioreq.Execute(req)
	}, agg)

	spans := [2]*trace.Span{trace.NewSpan("w0"), trace.NewSpan("w1")}
	if err := pl.Do(&ioreq.Request{
		Op: ioreq.OpWrite, Dataset: d, Space: slab(t, 8, 0, 4),
		Buf: []byte{1, 2, 3, 4}, Span: spans[0],
	}); err != nil {
		t.Fatal(err)
	}
	if dispatches != 0 {
		t.Fatalf("dispatched %d before window filled", dispatches)
	}
	if err := pl.Do(&ioreq.Request{
		Op: ioreq.OpWrite, Dataset: d, Space: slab(t, 8, 4, 4),
		Buf: []byte{5, 6, 7, 8}, Span: spans[1],
	}); err != nil {
		t.Fatal(err)
	}

	if dispatches != 1 {
		t.Errorf("dispatches = %d, want 1 (two adjacent writes coalesce)", dispatches)
	}
	got := make([]byte, 8)
	if err := d.Read(nil, nil, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("dataset = %v after merged write", got)
	}
	st := agg.Stats()
	if st.Buffered != 2 || st.Dispatched != 1 || st.Absorbed != 1 {
		t.Errorf("stats = %+v, want Buffered 2, Dispatched 1, Absorbed 1", st)
	}
	for i, sp := range spans {
		if _, ok := sp.Find("ioreq:agg:absorbed"); !ok {
			t.Errorf("span %d missing absorbed event:\n%s", i, sp)
		}
	}
}

func TestAggKeepsNonAdjacentWritesSeparate(t *testing.T) {
	d := newDataset(t, 8)
	dispatches := 0
	pl := ioreq.NewCustom(func(req *ioreq.Request) error {
		dispatches++
		return ioreq.Execute(req)
	}, ioreq.NewAgg(ioreq.AggConfig{MaxRequests: 2}))

	if err := pl.Do(&ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Space: slab(t, 8, 0, 2), Buf: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Do(&ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Space: slab(t, 8, 6, 2), Buf: []byte{7, 8}}); err != nil {
		t.Fatal(err)
	}
	if dispatches != 2 {
		t.Errorf("dispatches = %d, want 2 (gap prevents merging)", dispatches)
	}
	got := make([]byte, 8)
	if err := d.Read(nil, nil, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 0, 0, 0, 0, 7, 8}) {
		t.Errorf("dataset = %v", got)
	}
}

func TestAggFlushDispatchesPartialChains(t *testing.T) {
	d := newDataset(t, 8)
	dispatches := 0
	agg := ioreq.NewAgg(ioreq.AggConfig{MaxRequests: 10})
	pl := ioreq.NewCustom(func(req *ioreq.Request) error {
		dispatches++
		return ioreq.Execute(req)
	}, agg)

	for off := uint64(0); off < 8; off += 4 {
		buf := []byte{byte(off + 1), byte(off + 2), byte(off + 3), byte(off + 4)}
		if err := pl.Do(&ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Space: slab(t, 8, off, 4), Buf: buf}); err != nil {
			t.Fatal(err)
		}
	}
	if dispatches != 0 {
		t.Fatalf("dispatched %d before flush", dispatches)
	}
	if err := pl.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if dispatches != 1 {
		t.Errorf("dispatches = %d after flush, want 1", dispatches)
	}
	got := make([]byte, 8)
	if err := d.Read(nil, nil, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("dataset = %v after flush", got)
	}
	if st := agg.Stats(); st.Dispatched != 1 || st.Absorbed != 1 {
		t.Errorf("stats = %+v, want Dispatched 1, Absorbed 1", st)
	}
}

func TestAggReusedSelectionIsSafe(t *testing.T) {
	// Callers may legally mutate their dataspace after Write returns;
	// the stage must have detached from it.
	d := newDataset(t, 8)
	pl := ioreq.NewCustom(ioreq.Execute, ioreq.NewAgg(ioreq.AggConfig{MaxRequests: 2}))

	sp := slab(t, 8, 0, 4)
	if err := pl.Do(&ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Space: sp, Buf: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	// Re-aim the caller's dataspace at a different slab and write again.
	if err := sp.SelectHyperslab([]uint64{4}, nil, []uint64{1}, []uint64{4}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Do(&ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Space: sp, Buf: []byte{5, 6, 7, 8}}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := d.Read(nil, nil, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("dataset = %v", got)
	}
}

func TestAggPassesReadsThrough(t *testing.T) {
	d := newDataset(t, 8)
	if err := d.Write(nil, nil, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	agg := ioreq.NewAgg(ioreq.AggConfig{MaxRequests: 4})
	pl := ioreq.NewCustom(ioreq.Execute, agg)
	got := make([]byte, 4)
	if err := pl.Do(&ioreq.Request{Op: ioreq.OpRead, Dataset: d, Space: slab(t, 8, 2, 4), Buf: got}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{3, 4, 5, 6}) {
		t.Errorf("read = %v, want [3 4 5 6]", got)
	}
	if st := agg.Stats(); st.Passthrough != 1 || st.Buffered != 0 {
		t.Errorf("stats = %+v, want Passthrough 1, Buffered 0", st)
	}
}

// TestAggFlushDispatchesInChainCreationOrder pins Flush's dispatch order
// to the order the chains were created: each dispatch charges virtual
// time to the flushing process, so the order is part of the simulated
// outcome and must not follow the pending map's iteration order. Many
// datasets over several rounds, so a map-ordered Flush cannot pass by
// luck.
func TestAggFlushDispatchesInChainCreationOrder(t *testing.T) {
	const datasets, rounds = 24, 4
	ds := make([]*hdf5.Dataset, datasets)
	index := make(map[*hdf5.Dataset]int, datasets)
	for i := range ds {
		ds[i] = newDataset(t, 8)
		index[ds[i]] = i
	}
	var order []int
	pl := ioreq.NewCustom(func(req *ioreq.Request) error {
		order = append(order, index[req.Dataset])
		return nil
	}, ioreq.NewAgg(ioreq.AggConfig{MaxRequests: 10}))
	for r := 0; r < rounds; r++ {
		order = order[:0]
		// Start each chain at a round-dependent dataset so creation
		// order is not the slice order every time.
		for k := 0; k < datasets; k++ {
			d := ds[(k*7+r)%datasets]
			if err := pl.Do(&ioreq.Request{Op: ioreq.OpWrite, Dataset: d, Space: slab(t, 8, 0, 4), Buf: make([]byte, 4)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := pl.Flush(nil); err != nil {
			t.Fatal(err)
		}
		if len(order) != datasets {
			t.Fatalf("round %d: %d dispatches, want %d", r, len(order), datasets)
		}
		for k, got := range order {
			if want := (k*7 + r) % datasets; got != want {
				t.Fatalf("round %d: dispatch order %v, want chain-creation order", r, order)
			}
		}
	}
}

// TestAllocBudgetPipelineSetup: every rank builds three metered
// pipelines, so what one costs to set up is on the per-rank path. The
// stage chain — a closure and a histogram lookup per stage — is built
// once, by the first Do or Flush, not once at construction and again
// when WithMetrics attaches the registry (12 objects when it was).
func TestAllocBudgetPipelineSetup(t *testing.T) {
	reg := metrics.NewRegistry(vclock.New())
	allocs := testing.AllocsPerRun(100, func() {
		if err := ioreq.New().WithMetrics(reg).Flush(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("a metered pipeline allocates %.0f objects up to its first use, budget 8", allocs)
	}
}
