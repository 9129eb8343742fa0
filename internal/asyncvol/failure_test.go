package asyncvol

import (
	"errors"
	"testing"

	"asyncio/internal/hdf5"
	"asyncio/internal/taskengine"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// failingStore wraps a MemStore and starts failing writes after a given
// number of successful ones — fault injection for the background I/O
// path.
type failingStore struct {
	*hdf5.MemStore
	allow int
	err   error
}

func (fs *failingStore) WriteAt(p []byte, off int64) (int, error) {
	if fs.allow <= 0 {
		return 0, fs.err
	}
	fs.allow--
	return fs.MemStore.WriteAt(p, off)
}

func TestBackgroundWriteFailureSurfacesThroughEventSet(t *testing.T) {
	sentinel := errors.New("injected disk failure")
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true})
	// Allow enough writes for file setup, then fail.
	store := &failingStore{MemStore: hdf5.NewMemStore(), allow: 2, err: sentinel}
	f, err := c.Create(vol.Props{}, store)
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, err := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(64), nil)
		if err != nil {
			t.Error(err)
			return
		}
		es := NewEventSet()
		store.allow = 0 // fail everything from here
		if err := ds.Write(vol.Props{Proc: p, Set: es}, nil, make([]byte, 64)); err != nil {
			t.Errorf("async Write must not fail at submission: %v", err)
		}
		if err := es.Wait(p); !errors.Is(err, sentinel) {
			t.Errorf("ES.Wait = %v, want injected failure", err)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundFailureSurfacesThroughDrainAndClose(t *testing.T) {
	sentinel := errors.New("injected failure")
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true})
	store := &failingStore{MemStore: hdf5.NewMemStore(), allow: 2, err: sentinel}
	f, err := c.Create(vol.Props{}, store)
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, err := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(8), nil)
		if err != nil {
			t.Error(err)
			return
		}
		store.allow = 0
		if err := ds.Write(pr, nil, make([]byte, 8)); err != nil {
			t.Error(err)
		}
		if err := c.Drain(p); !errors.Is(err, sentinel) {
			t.Errorf("Drain = %v, want injected failure", err)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchFailureSurfacesAtRead(t *testing.T) {
	sentinel := errors.New("read path down")
	clk := newHeldClock()
	eng := taskengine.New(clk.Clock)
	c := New(eng, "r0", Options{Materialize: true})
	store := &readFailStore{MemStore: hdf5.NewMemStore(), err: sentinel}
	f, err := c.Create(vol.Props{}, store)
	if err != nil {
		t.Fatal(err)
	}
	clk.Go("app", func(p *vclock.Proc) {
		pr := vol.Props{Proc: p}
		ds, err := f.Root().CreateDataset(pr, "d", hdf5.U8, hdf5.MustSimple(8), nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := ds.Write(pr, nil, make([]byte, 8)); err != nil {
			t.Error(err)
		}
		if err := c.Drain(p); err != nil {
			t.Error(err)
		}
		store.failing = true
		if err := ds.Prefetch(pr, nil); err != nil {
			t.Errorf("Prefetch must not fail at submission: %v", err)
		}
		out := make([]byte, 8)
		if err := ds.Read(pr, nil, out); !errors.Is(err, sentinel) {
			t.Errorf("Read after failed prefetch = %v, want injected failure", err)
		}
		c.Shutdown()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

type readFailStore struct {
	*hdf5.MemStore
	failing bool
	err     error
}

func (rs *readFailStore) ReadAt(p []byte, off int64) (int, error) {
	if rs.failing {
		return 0, rs.err
	}
	return rs.MemStore.ReadAt(p, off)
}
