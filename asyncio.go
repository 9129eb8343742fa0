// Package asyncio is the public facade of the asynchronous parallel I/O
// evaluation library — a full reproduction of "Evaluating Asynchronous
// Parallel I/O on HPC Systems" (IPDPS 2023) as a self-contained Go
// system.
//
// The library has four layers. This file re-exports what the programs
// under examples/ and a first downstream user need of them — nothing is
// exported here that no example and no facade test uses
// (TestFacadeExportsAreUsed); everything else is reached through the
// internal packages directly, as examples/prefetch_reader does:
//
//   - Storage: an HDF5-like self-describing container (hdf5 types) with
//     a VOL interception layer. The native connector is synchronous;
//     the asynchronous one stages writes and prefetches reads on a
//     background stream, charging the transactional overhead the
//     paper's model is built around.
//   - Systems: discrete-event models of Summit (GPFS) and Cori-Haswell
//     (Lustre) — node memory systems, parallel file systems with
//     saturation, small-request penalties and day-to-day contention —
//     all driven by a deterministic virtual clock.
//   - Model: the paper's epoch-time equations, history-driven I/O-rate
//     regressions (Eq. 4), r² (Eq. 5), and the adaptive sync/async
//     advisor.
//   - Workloads and experiments: VPIC-IO, BD-CATS-IO, Nyx, Castro,
//     EQSIM and Cosmoflow drivers plus generators that regenerate every
//     figure of the paper's evaluation.
//
// Quick start:
//
//	clk := asyncio.NewClock()
//	sys := asyncio.Summit(clk, 16) // 16 nodes, 96 ranks
//	rep, _, err := vpicio.Run(sys, vpicio.Config{Mode: core.ForceAsync})
//
// See examples/ for runnable programs and cmd/asyncio-bench for the
// figure regeneration harness.
package asyncio

import (
	"asyncio/internal/asyncvol"
	"asyncio/internal/core"
	"asyncio/internal/experiments"
	"asyncio/internal/hdf5"
	"asyncio/internal/model"
	"asyncio/internal/systems"
	"asyncio/internal/taskengine"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// Proc is a process registered with a virtual clock.
type Proc = vclock.Proc

// NewClock returns a deterministic discrete-event virtual clock at time
// zero.
func NewClock() *vclock.Clock { return vclock.New() }

// Storage layer.

// CreateProps configures dataset creation (chunking, compression).
type CreateProps = hdf5.CreateProps

// Predefined datatypes.
var (
	U8  = hdf5.U8
	F64 = hdf5.F64
)

// Store constructors.
var (
	NewMemStore     = hdf5.NewMemStore
	CreateFileStore = hdf5.CreateFileStore
	OpenFileStore   = hdf5.OpenFileStore
)

// Little-endian slice conversion helpers for dataset buffers.
var (
	Float64sToBytes = hdf5.Float64sToBytes
	BytesToFloat64s = hdf5.BytesToFloat64s
)

// CreateFile initializes a fresh container on store.
func CreateFile(store hdf5.Store, opts ...hdf5.FileOption) (*hdf5.File, error) {
	return hdf5.Create(store, opts...)
}

// OpenFile loads an existing container.
func OpenFile(store hdf5.Store, opts ...hdf5.FileOption) (*hdf5.File, error) {
	return hdf5.Open(store, opts...)
}

// NewSimpleSpace returns a simple dataspace.
func NewSimpleSpace(dims ...uint64) (*hdf5.Dataspace, error) { return hdf5.NewSimple(dims...) }

// VOL layer.
type (
	// Props carries per-call context through the VOL.
	Props = vol.Props
	// AsyncOptions configures an asynchronous connector.
	AsyncOptions = asyncvol.Options
	// CopyFunc adapts a function to the connector's copy model, which
	// charges the transactional staging overhead.
	CopyFunc = asyncvol.CopyFunc
)

// NewTaskEngine returns the Argobots-analog background tasking engine
// on clk.
func NewTaskEngine(clk *vclock.Clock) *taskengine.Engine { return taskengine.New(clk) }

// NewAsyncConnector returns an asynchronous connector with its own
// background stream.
func NewAsyncConnector(eng *taskengine.Engine, name string, opts AsyncOptions) *asyncvol.Connector {
	return asyncvol.New(eng, name, opts)
}

// NewEventSet returns an empty event set (the H5ES analog).
func NewEventSet() *asyncvol.EventSet { return asyncvol.NewEventSet() }

// Machine constructors.
var (
	// Summit builds a Summit allocation (6 ranks/node, GPFS).
	Summit = systems.Summit
	// CoriHaswell builds a Cori-Haswell allocation (32 ranks/node,
	// Lustre).
	CoriHaswell = systems.CoriHaswell
	// WithContention enables deterministic day-to-day backend
	// contention.
	WithContention = systems.WithContention
)

// Application driver and model.
type (
	// RunConfig parameterizes an iterative application run.
	RunConfig = core.Config
	// Hooks are the workload callbacks of the run loop.
	Hooks = core.Hooks
	// RankCtx is the per-rank execution context.
	RankCtx = core.RankCtx
	// IOMode labels an epoch's I/O strategy (Sync or Async).
	IOMode = trace.Mode
)

// Adaptive lets the model pick the mode per epoch.
const Adaptive = core.Adaptive

// I/O mode labels.
const (
	// Sync labels synchronous epochs.
	Sync = trace.Sync
	// Async labels asynchronous epochs.
	Async = trace.Async
)

// RunApp executes an iterative application on sys (see core.Run).
func RunApp(sys *systems.System, cfg RunConfig, hooks Hooks) (*core.Report, error) {
	return core.Run(sys, cfg, hooks)
}

// NewEstimator returns an empty model estimator: the paper's
// feedback-loop model state.
func NewEstimator(opts ...model.EstimatorOption) *model.Estimator {
	return model.NewEstimator(opts...)
}

// Experiment scales and registry.
var (
	// ReducedScale completes in seconds (tests, benches).
	ReducedScale = experiments.ReducedScale
	// FullScale reproduces the paper's node counts.
	FullScale = experiments.FullScale
	// Experiments maps figure ids to generators.
	Experiments = experiments.Registry
)
