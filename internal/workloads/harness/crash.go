package harness

import (
	"asyncio/internal/core"
	"asyncio/internal/critpath"
	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
	"asyncio/internal/metrics"
	"asyncio/internal/pfs"
	"asyncio/internal/recovery"
	"asyncio/internal/vol"
)

// CrashKit bundles the crash-consistency machinery for one run: a
// durable write-back store layered over the base image, a write-ahead
// journal, and the inline journal stage to hand each rank's
// asynchronous connector. Build one per run on the host, pass
// Stage via Options.AsyncInlineStages and Durable as the container
// store; after a crash, tear the cache with Durable.Crash and scan the
// base image with recovery.Scan(Journal.Bytes(), Base, ...).
type CrashKit struct {
	Base    hdf5.Store
	Durable *pfs.DurableStore
	Journal *recovery.Journal
	Stage   *recovery.JournalStage
}

// NewCrashKit builds the kit over a fresh MemStore. capturePayload
// controls whether the journal records element bytes (verification and
// replay) or only extent maps.
func NewCrashKit(cfg pfs.DurabilityConfig, cost recovery.Cost, capturePayload bool) *CrashKit {
	base := hdf5.NewMemStore()
	j := recovery.NewJournal(cost)
	return &CrashKit{
		Base:    base,
		Durable: pfs.NewDurableStore(base, cfg),
		Journal: j,
		Stage:   recovery.NewJournalStage(j, capturePayload),
	}
}

// InlineStages returns the option slice wiring the journal into each
// rank's connector.
func (k *CrashKit) InlineStages() []ioreq.Stage {
	return []ioreq.Stage{k.Stage}
}

// SetCrit attaches the critical-path recorder to the kit's durability
// machinery: journal appends and charged fsync barriers record
// fsync-journal edges. Nil-safe on both sides.
func (k *CrashKit) SetCrit(rec *critpath.Recorder) {
	if k == nil {
		return
	}
	k.Journal.SetCrit(rec)
	k.Durable.SetCrit(rec)
}

// Checkpointer coordinates application-level durable checkpoints: every
// Every epochs, all ranks drain their asynchronous work, synchronize,
// and rank 0 flushes the container — metadata plus the durable store's
// fsync barrier — so everything written so far survives any later
// crash. One instance is shared by all ranks of a run.
type Checkpointer struct {
	// Every is the checkpoint interval in epochs; <= 0 disables.
	Every int

	journal     *recovery.Journal // truncated after each durable commit; may be nil
	lastDurable int

	mCommits *metrics.Counter
}

// NewCheckpointer builds a checkpointer. journal, when non-nil, is
// truncated after each durable commit (its records are redundant once
// the data they describe is on stable storage).
func NewCheckpointer(every int, journal *recovery.Journal) *Checkpointer {
	return &Checkpointer{Every: every, journal: journal, lastDurable: -1}
}

// Instrument registers the commit counter (pay-for-use).
func (ck *Checkpointer) Instrument(m *metrics.Registry) {
	if ck == nil || m == nil {
		return
	}
	ck.mCommits = m.Counter("harness.checkpoint.commits")
}

// LastDurable returns the highest epoch index covered by a durable
// checkpoint, or -1 when none committed. After a crash, restart from
// LastDurable()+1.
func (ck *Checkpointer) LastDurable() int {
	if ck == nil {
		return -1
	}
	return ck.lastDurable
}

// Checkpoint runs the durable-commit protocol for epoch iter when the
// interval says so; otherwise it returns immediately. All ranks must
// call it at the same point of the epoch (it contains barriers). The
// elapsed virtual time is the recovery-cost side of the
// checkpoint-interval tradeoff and lands in the epoch's I/O time.
func (ck *Checkpointer) Checkpoint(ctx *core.RankCtx, env *Env, iter int) error {
	if ck == nil || ck.Every <= 0 || (iter+1)%ck.Every != 0 {
		return nil
	}
	// Every rank's asynchronous writes for epochs <= iter must reach the
	// container before the barrier; then one rank pays the flush.
	if err := env.Drain(ctx.P); err != nil {
		return err
	}
	ctx.Comm.Barrier()
	if ctx.Rank == 0 {
		if err := env.AsyncFile.Flush(vol.Props{Proc: ctx.P}); err != nil {
			return err
		}
		// Bookkeeping runs on rank 0 alone, strictly between the flush
		// and the release barrier: no other rank can journal a new write
		// until the barrier opens, so the journal truncation cannot drop
		// an append made after the flush.
		if iter > ck.lastDurable {
			ck.lastDurable = iter
			if ck.journal != nil {
				ck.journal.Reset()
			}
			ck.mCommits.Add(1)
		}
		// The checkpoint's fsync barrier is the commit consistency
		// model's publish point and every model's durability promise.
		// Recorded after the flush so a crash between the two merely
		// weakens the promise, never overstates it.
		ctx.Sys.Consistency.Commit(ctx.P, iter)
	}
	ctx.Comm.Barrier()
	return nil
}
