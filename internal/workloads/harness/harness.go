// Package harness carries what every workload shares. Run is the one
// application skeleton — the paper's t_app = t_init + Σ t_epoch + t_term
// loop (Eq. 1), computation replaced by a sleep — around a workload's
// I/O function. Env is one rank's I/O environment: a native synchronous
// connector plus an asyncvol connector with the system's
// transactional-copy model, mode-keyed file handles over one shared
// container, the materialize-or-discard choice, and teardown.
package harness

import (
	"fmt"
	"time"

	"asyncio/internal/asyncvol"
	"asyncio/internal/core"
	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
	"asyncio/internal/model"
	"asyncio/internal/systems"
	"asyncio/internal/taskengine"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// App is one workload as the shared skeleton sees it: how many epochs,
// how long each computation phase sleeps, and the one function that
// differs between workloads — a rank's I/O phase.
type App struct {
	Name       string // workload name in the report and trace records
	Iterations int
	Compute    time.Duration // simulated computation phase per epoch
	Mode       core.Mode
	Ranks      int              // 0 = the full allocation (see Ranks)
	Env        Options          // each rank's connector configuration
	Estimator  *model.Estimator // optional: model history across runs
	// Observe, when non-nil, runs on rank 0 after each epoch's record
	// commits (see core.Hooks.Observe).
	Observe func(ctx *core.RankCtx, iter int, rec trace.Record)
	// IO runs one rank's I/O phase of epoch iter in the given mode
	// against that rank's Env and returns the bytes the rank moved.
	IO func(ctx *core.RankCtx, env *Env, iter int, mode trace.Mode) (int64, error)
}

// Ranks resolves a workload's rank count: n, or the full allocation
// when n is zero. Drivers that size their data by it call it before Run.
func Ranks(sys *systems.System, n int) int {
	if n == 0 {
		return sys.Size()
	}
	return n
}

// Run executes app on sys against the shared container raw: every rank
// builds its Env at init, sleeps through each computation phase, runs
// app.IO, and drains and closes at the end. One task engine serves all
// ranks (one background stream per rank, matching vol-async). On an
// aborted run the partial report comes back with the error.
func Run(sys *systems.System, raw *hdf5.File, app App) (*core.Report, error) {
	ranks := Ranks(sys, app.Ranks)
	eng := taskengine.New(sys.Clk)
	envs := make([]*Env, ranks)
	return core.Run(sys, core.Config{
		Workload:   app.Name,
		Iterations: app.Iterations,
		Mode:       app.Mode,
		Ranks:      ranks,
		Estimator:  app.Estimator,
	}, core.Hooks{
		Init: func(ctx *core.RankCtx) error {
			envs[ctx.Rank] = NewEnv(ctx, eng, raw, app.Env)
			return nil
		},
		Compute: func(ctx *core.RankCtx, iter int) error {
			ctx.P.Sleep(app.Compute)
			return nil
		},
		IO: func(ctx *core.RankCtx, iter int, mode trace.Mode) (int64, error) {
			return app.IO(ctx, envs[ctx.Rank], iter, mode)
		},
		Drain:   func(ctx *core.RankCtx) error { return envs[ctx.Rank].Drain(ctx.P) },
		Term:    func(ctx *core.RankCtx) error { return envs[ctx.Rank].Term(ctx.P) },
		Observe: app.Observe,
	})
}

// Env is one rank's I/O environment.
type Env struct {
	Rank      int
	Conn      *asyncvol.Connector
	AsyncFile vol.File
	SyncFile  vol.File
	ES        *asyncvol.EventSet

	materialize bool            // Options.Materialize: Write/Read move real bytes
	syncPL      *ioreq.Pipeline // non-nil when Options.SyncPipeline was set
}

// Options configures environment construction.
type Options struct {
	// Materialize makes staging buffers real (small-scale correctness
	// runs). Full-scale timing runs leave it false.
	Materialize bool
	// GPU stages through the GPU link before the host copy (Nyx's GPU
	// configuration); Pinned selects pinned host buffers.
	GPU    bool
	Pinned bool
	// SSD stages to the node-local SSD instead of DRAM.
	SSD bool
	// ZeroCopy disables the transactional copy entirely — the ablation
	// of the overhead term.
	ZeroCopy bool
	// SyncPipeline overrides the synchronous connector's I/O request
	// pipeline. Pass one instance shared by every rank (e.g.
	// ioreq.New(ioreq.NewAgg(cfg))) to aggregate adjacent writes across
	// ranks; Term flushes it before closing the file.
	SyncPipeline *ioreq.Pipeline
	// AsyncInlineStages are extra caller-side stages for each rank's
	// asynchronous connector, run before the staging copy (e.g. the
	// write-ahead journal stage). Shared across ranks; must be
	// concurrency-safe.
	AsyncInlineStages []ioreq.Stage
}

// NewEnv builds the per-rank environment around a shared raw file. The
// engine must be shared by all ranks of the run (one background stream
// is created per rank, matching vol-async).
func NewEnv(ctx *core.RankCtx, eng *taskengine.Engine, raw *hdf5.File, opts Options) *Env {
	var copyModel asyncvol.CopyModel
	switch {
	case opts.ZeroCopy:
		copyModel = nil
	case opts.SSD:
		copyModel = asyncvol.CopyFunc(ctx.Sys.SSDStageModel(ctx.Rank))
	case opts.GPU:
		copyModel = asyncvol.CopyFunc(ctx.Sys.GPUCopyModel(ctx.Rank, opts.Pinned))
	default:
		copyModel = asyncvol.CopyFunc(ctx.Sys.MemcpyModel(ctx.Rank))
	}
	eng.SetMetrics(ctx.Sys.Metrics)
	eng.SetCrit(ctx.Sys.Crit)
	avOpts := asyncvol.Options{
		Copy:         copyModel,
		Materialize:  opts.Materialize,
		Metrics:      ctx.Sys.Metrics,
		Crit:         ctx.Sys.Crit,
		InlineStages: opts.AsyncInlineStages,
	}
	// The consistency stage sits upstream of the retry stage on both
	// paths, so one successful execution records exactly one write no
	// matter how many retries it took. It runs on the executing process:
	// the rank itself synchronously, the background stream
	// asynchronously — which is how async hides visibility cost.
	cs := ctx.Sys.Consistency
	consStage := cs.Stage(ctx.Rank)
	syncPL := opts.SyncPipeline
	var execStages, syncStages []ioreq.Stage
	if consStage != nil {
		execStages = append(execStages, consStage)
		syncStages = append(syncStages, consStage)
	}
	if in := ctx.Sys.Faults; in != nil {
		// A faulted system retries on both paths: the connector's
		// background executor and (absent a caller-supplied pipeline)
		// the synchronous route. Assign the interface field only from a
		// non-nil injector so the nil check inside asyncvol stays valid.
		avOpts.Faults = in
		execStages = append(execStages, in.RetryStage())
		syncStages = append(syncStages, in.RetryStage())
	}
	avOpts.ExecStages = execStages
	if syncPL == nil && len(syncStages) > 0 {
		syncPL = ioreq.New(syncStages...).WithMetrics(ctx.Sys.Metrics)
	}
	if cs != nil {
		rank := ctx.Rank
		// Publish points: a drain is the connector's sync barrier
		// (MPI-IO), a close ends the session (session consistency).
		avOpts.OnDrained = func(p *vclock.Proc) { cs.RankSync(p, rank) }
		avOpts.OnClose = func(p *vclock.Proc) { cs.RankClose(p, rank) }
	}
	conn := asyncvol.New(eng, fmt.Sprintf("rank%d", ctx.Rank), avOpts)
	// If the run has a crash schedule, the rank's background stream dies
	// with the rank: queued asynchronous writes are abandoned un-issued,
	// which is exactly the data-loss window crash experiments measure.
	ctx.OnCrash(func(reason error) { conn.Kill(reason) })
	es := asyncvol.NewEventSet()
	es.SetCrit(ctx.Sys.Crit)
	return &Env{
		Rank:        ctx.Rank,
		Conn:        conn,
		AsyncFile:   conn.Wrap(raw),
		SyncFile:    vol.Native{Pipeline: syncPL}.Wrap(raw),
		ES:          es,
		materialize: opts.Materialize,
		syncPL:      syncPL,
	}
}

// File returns the handle for the given I/O mode.
func (e *Env) File(mode trace.Mode) vol.File {
	if mode == trace.Async {
		return e.AsyncFile
	}
	return e.SyncFile
}

// Props returns transfer props for the given mode: asynchronous
// operations are tracked in the env's event set.
func (e *Env) Props(p *vclock.Proc, mode trace.Mode) vol.Props {
	if mode == trace.Async {
		return vol.Props{Proc: p, Set: e.ES}
	}
	return vol.Props{Proc: p}
}

// Write writes nbytes to the selection of ds: real bytes — a zeroed
// buffer, passed through fill when fill is non-nil — from a
// materializing env, a timing-only charge otherwise (full-scale runs
// cannot hold every rank's buffer). fill is called, never kept, so a
// closure passed here stays on the caller's stack.
func (e *Env) Write(pr vol.Props, ds vol.Dataset, sel *hdf5.Dataspace, nbytes int64, fill func([]byte)) error {
	if !e.materialize {
		return ds.WriteDiscard(pr, sel)
	}
	buf := make([]byte, nbytes)
	if fill != nil {
		fill(buf)
	}
	return ds.Write(pr, sel, buf)
}

// Read reads the selection's nbytes of ds and returns them; an env that
// does not materialize charges the read and returns nil.
func (e *Env) Read(pr vol.Props, ds vol.Dataset, sel *hdf5.Dataspace, nbytes int64) ([]byte, error) {
	if !e.materialize {
		return nil, ds.ReadDiscard(pr, sel)
	}
	buf := make([]byte, nbytes)
	if err := ds.Read(pr, sel, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Drain waits for all outstanding asynchronous work of this rank.
func (e *Env) Drain(p *vclock.Proc) error {
	if err := e.ES.Wait(p); err != nil {
		return err
	}
	return e.Conn.Drain(p)
}

// Term drains, closes the file (idempotent across ranks), and shuts the
// background stream down. A shared synchronous aggregation pipeline is
// flushed first so buffered writes reach the store before close.
func (e *Env) Term(p *vclock.Proc) error {
	if e.syncPL != nil {
		if err := e.syncPL.Flush(p); err != nil {
			return err
		}
	}
	if err := e.AsyncFile.Close(vol.Props{Proc: p}); err != nil {
		return err
	}
	e.Conn.Shutdown()
	return nil
}

// NewStore returns the store appropriate for the scale: a MemStore when
// materializing, a NullStore otherwise.
func NewStore(materialize bool) hdf5.Store {
	if materialize {
		return hdf5.NewMemStore()
	}
	return hdf5.NewNullStore()
}

// CreateSharedFile creates the run's container on the system's PFS
// driver. Call from the host before Run; creation cost is part of
// t_init and charged when ranks open objects.
func CreateSharedFile(sys *systems.System, materialize bool) (*hdf5.File, error) {
	return hdf5.Create(NewStore(materialize), hdf5.WithDriver(sys.PFS))
}

// Slab1D selects rank's contiguous share of a 1-D dataset of total
// elements: [rank*per, rank*per+per).
func Slab1D(total, per uint64, rank int) (*hdf5.Dataspace, error) {
	sp, err := hdf5.NewSimple(total)
	if err != nil {
		return nil, err
	}
	start := uint64(rank) * per
	if err := sp.SelectHyperslab([]uint64{start}, nil, []uint64{1}, []uint64{per}); err != nil {
		return nil, err
	}
	return sp, nil
}

// Block1D selects rank's block of a 1-D dataset of total elements split
// evenly over size ranks, and returns it with its element count. The
// last rank absorbs the remainder; a rank past the end of a dataset
// shorter than the rank count gets a nil selection: it moves nothing.
func Block1D(total uint64, rank, size int) (*hdf5.Dataspace, uint64, error) {
	per := total / uint64(size)
	if per == 0 {
		per = 1
	}
	start := uint64(rank) * per
	if start >= total {
		return nil, 0, nil
	}
	count := per
	if rank == size-1 {
		count = total - start
	}
	sel, err := hdf5.NewSimple(total)
	if err != nil {
		return nil, 0, err
	}
	if err := sel.SelectHyperslab([]uint64{start}, nil, []uint64{1}, []uint64{count}); err != nil {
		return nil, 0, err
	}
	return sel, count, nil
}
