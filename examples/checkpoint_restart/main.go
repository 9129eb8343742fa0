// Checkpoint/restart example: a time-series dataset that grows with
// every checkpoint (chunked + extendable, the H5Dset_extent pattern),
// stored with the deflate filter, written asynchronously, and then
// restarted from — demonstrating the storage-layer features the
// evaluation's checkpoint workloads are built on.
//
//	go run ./examples/checkpoint_restart
package main

import (
	"fmt"
	"log"

	"asyncio"
)

const (
	stateLen    = 1 << 10 // elements per checkpoint
	checkpoints = 6
)

func main() {
	store := asyncio.NewMemStore()

	// --- First "job": run and checkpoint asynchronously. ---
	clk := asyncio.NewClock()
	eng := asyncio.NewTaskEngine(clk)
	conn := asyncio.NewAsyncConnector(eng, "job1", asyncio.AsyncOptions{Materialize: true})
	f, err := conn.Create(asyncio.Props{}, store)
	if err != nil {
		log.Fatal(err)
	}

	clk.Go("job1", func(p *asyncio.Proc) {
		pr := asyncio.Props{Proc: p, Set: asyncio.NewEventSet()}
		space, _ := asyncio.NewSimpleSpace(stateLen)
		ds, err := f.Root().CreateDataset(pr, "state", asyncio.F64, space,
			&asyncio.CreateProps{ChunkDims: []uint64{stateLen}, Deflate: true})
		if err != nil {
			log.Fatal(err)
		}
		state := make([]float64, stateLen)
		for step := 0; step < checkpoints; step++ {
			// "Compute": evolve the state.
			for i := range state {
				state[i] = float64(step) + float64(i)*1e-3
			}
			// Grow the dataset to hold this checkpoint and append it
			// asynchronously; the write overlaps the next compute phase.
			total := uint64(stateLen) * uint64(step+1)
			raw := ds.Unwrap()
			if err := raw.Extend(nil, []uint64{total}); err != nil {
				log.Fatal(err)
			}
			sel, _ := asyncio.NewSimpleSpace(total)
			if err := sel.SelectHyperslab(
				[]uint64{uint64(step) * stateLen}, nil,
				[]uint64{1}, []uint64{stateLen}); err != nil {
				log.Fatal(err)
			}
			if err := ds.Write(pr, sel, asyncio.Float64sToBytes(state)); err != nil {
				log.Fatal(err)
			}
		}
		if err := f.Close(pr); err != nil {
			log.Fatal(err)
		}
		conn.Shutdown()
	})
	// Nothing has run yet: the connector's stream and the job start here.
	if err := clk.Wait(); err != nil {
		log.Fatal(err)
	}

	// --- Second "job": restart from the latest checkpoint. ---
	f2, err := asyncio.OpenFile(store)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := f2.Root().OpenDataset(nil, "state")
	if err != nil {
		log.Fatal(err)
	}
	dims := ds.Dims()
	steps := dims[0] / stateLen
	fmt.Printf("restart file: dataset %v (%d checkpoints), deflate=%v, %d B stored for %d B logical\n",
		dims, steps, ds.Deflated(), ds.StoredBytes(), ds.NBytes())

	last, _ := asyncio.NewSimpleSpace(dims[0])
	if err := last.SelectHyperslab(
		[]uint64{(steps - 1) * stateLen}, nil,
		[]uint64{1}, []uint64{stateLen}); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, stateLen*8)
	if err := ds.Read(nil, last, buf); err != nil {
		log.Fatal(err)
	}
	state := asyncio.BytesToFloat64s(buf)
	fmt.Printf("resumed from checkpoint %d: state[0]=%.3f state[last]=%.3f\n",
		steps-1, state[0], state[len(state)-1])
}
