// Package taskengine is a lightweight tasking framework in the spirit of
// Argobots, which the HDF5 asynchronous VOL connector uses for its
// background threads. An Engine owns execution streams; each Stream is a
// single virtual-clock process draining a FIFO of tasks. Tasks may
// declare dependencies on other tasks (even across streams) and expose a
// future-like Wait.
//
// The async VOL connector (internal/asyncvol) creates one stream per
// simulated MPI process, matching vol-async's one-background-thread-per-
// process design.
package taskengine

import (
	"fmt"

	"asyncio/internal/critpath"
	"asyncio/internal/metrics"
	"asyncio/internal/vclock"
)

// Engine creates and tracks streams on one clock.
type Engine struct {
	clk *vclock.Clock

	mTasks       *metrics.Counter
	mTaskSeconds *metrics.Histogram
	mQueued      *metrics.Gauge

	critRec *critpath.Recorder
}

// New returns an Engine on clk.
func New(clk *vclock.Clock) *Engine {
	return &Engine{clk: clk}
}

// SetMetrics instruments the engine on m: "taskengine.queued" tracks
// tasks waiting in stream FIFOs, "taskengine.tasks_completed" and
// "taskengine.task_seconds" record executed tasks. Idempotent (the
// first non-nil registry wins), so every rank's setup path may call it
// with the shared registry.
func (e *Engine) SetMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	if e.mTasks != nil {
		return
	}
	e.mTasks = m.Counter("taskengine.tasks_completed")
	e.mTaskSeconds = m.Histogram("taskengine.task_seconds")
	e.mQueued = m.Gauge("taskengine.queued")
}

// SetCrit attaches the critical-path recorder: streams record their
// idle waits and dependency waits as causal edges. Idempotent (first
// non-nil recorder wins), mirroring SetMetrics.
func (e *Engine) SetCrit(rec *critpath.Recorder) {
	if rec != nil && e.critRec == nil {
		e.critRec = rec
	}
}

// NewStream spawns an execution stream: a dedicated process that runs
// pushed tasks in FIFO order. The stream runs until Shutdown.
func (e *Engine) NewStream(name string) *Stream {
	s := &Stream{e: e, name: name}
	s.wake.Init(e.clk, "taskengine:wake")
	s.exited.Init(e.clk, "taskengine:exited")
	e.clk.Go("stream:"+name, s.run)
	return s
}

// Stream is a single background execution context.
type Stream struct {
	e    *Engine
	name string

	queue taskRing
	// wake is re-armed (Reset) by the stream each time it goes idle, and
	// idle is set with it: the one Push that finds idle set fires wake, so
	// a re-armed wake can never see a stale Fire from an earlier Push.
	wake    vclock.Event
	idle    bool
	stopped bool
	killErr error        // non-nil once killed; Push then fails tasks instead of panicking
	current *Task        // task being executed, failed on Kill so waiters unwind
	proc    *vclock.Proc // the stream's process, for Kill

	exited vclock.Event
}

// taskRing is the stream's FIFO: a growable ring, so a steady
// push/pop load reuses one backing array and a popped slot is cleared
// at once instead of pinning its finished task.
type taskRing struct {
	buf     []*Task
	head, n int
}

func (r *taskRing) push(t *Task) {
	if r.n == len(r.buf) {
		buf := make([]*Task, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = t
	r.n++
}

func (r *taskRing) pop() *Task {
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return t
}

// Task is a unit of work with future semantics.
type Task struct {
	name string
	deps []*Task
	fn   func(p *vclock.Proc) error
	done vclock.Event
	err  error
}

// Push enqueues fn on the stream. The task starts only after every task
// in deps has completed. Pushing to a stopped stream panics — it is a
// lifecycle bug in the caller.
func (s *Stream) Push(name string, deps []*Task, fn func(p *vclock.Proc) error) *Task {
	t := &Task{name: name, deps: append([]*Task(nil), deps...), fn: fn}
	t.done.Init(s.e.clk, "taskengine:done")
	if s.stopped {
		if s.killErr != nil {
			// A crashed process may still issue a few pushes before it
			// reaches its next blocking point and dies; its work simply
			// fails instead of tripping the lifecycle panic.
			t.complete(s.killErr)
			return t
		}
		panic(fmt.Sprintf("taskengine: Push(%q) on stopped stream %q", name, s.name))
	}
	s.queue.push(t)
	s.e.mQueued.Add(1)
	if s.idle {
		s.idle = false
		s.wake.Fire()
	}
	return t
}

// Shutdown asks the stream to exit after draining its queue. Idempotent.
func (s *Stream) Shutdown() {
	if s.stopped {
		return
	}
	s.stopped = true
	// Once stopped the stream never re-arms wake, so firing it
	// unconditionally is safe (and a no-op when the stream is busy).
	s.wake.Fire()
}

// Kill terminates the stream as by a crash: the background process dies
// with a vclock.Killed panic at its next blocking point, and every
// queued task — plus the one in flight, if any — completes with reason
// as its error, so drain barriers and event-set waiters unwind instead
// of hanging on tasks that will never run. Idempotent; a subsequent
// Push fails its task with reason instead of panicking.
func (s *Stream) Kill(reason error) {
	if s.killErr != nil {
		return
	}
	s.killErr = reason
	s.stopped = true
	if s.proc != nil {
		s.proc.Kill(reason)
	}
	if cur := s.current; cur != nil {
		s.current = nil
		cur.complete(reason)
	}
	if n := s.queue.n; n > 0 {
		for s.queue.n > 0 {
			s.queue.pop().complete(reason)
		}
		s.e.mQueued.Add(-float64(n))
	}
	s.wake.Fire() // in case the proc had not started yet
}

// Join blocks p until the stream process has exited.
func (s *Stream) Join(p *vclock.Proc) { s.exited.Wait(p) }

// Pending returns the number of queued (not yet started) tasks.
func (s *Stream) Pending() int { return s.queue.n }

func (s *Stream) run(p *vclock.Proc) {
	defer s.exited.Fire()
	s.proc = p
	for {
		if s.queue.n == 0 {
			if s.stopped {
				return
			}
			// Re-arm the wake event (events are one-shot) and sleep
			// until more work arrives.
			s.wake.Reset()
			s.idle = true
			idleStart := p.Now()
			s.wake.Wait(p)
			s.e.critRec.Record(critpath.Edge{
				Track: p.Name(), Cause: critpath.QueueWait, Subsystem: "taskengine",
				Detail: "stream-idle", Start: idleStart, End: p.Now(),
			})
			continue
		}
		t := s.queue.pop()
		s.current = t
		s.e.mQueued.Add(-1)
		if len(t.deps) > 0 {
			depStart := p.Now()
			for _, dep := range t.deps {
				dep.done.Wait(p)
			}
			s.e.critRec.Record(critpath.Edge{
				Track: p.Name(), Cause: critpath.QueueWait, Subsystem: "taskengine",
				Detail: "task-dep", Start: depStart, End: p.Now(),
			})
		}
		start := p.Now()
		err := t.fn(p)
		// A finished task stays reachable from whoever tracks completion
		// (event sets, a connector's newest-task pointer, prefetch
		// caches); it must not pin what its closure captured — the
		// request, its selection, a staging buffer — until they let go.
		t.fn = nil
		s.e.mTasks.Add(1)
		s.e.mTaskSeconds.Observe((p.Now() - start).Seconds())
		t.complete(err)
		s.current = nil
	}
}

// complete records the task's outcome (first writer wins — a kill that
// already failed the task keeps its reason) and wakes waiters.
func (t *Task) complete(err error) {
	if t.err == nil {
		t.err = err
	}
	t.done.Fire()
}

// Wait blocks p until the task completes, returning the task's error.
func (t *Task) Wait(p *vclock.Proc) error {
	t.done.Wait(p)
	return t.Err()
}

// Err returns the task's error; nil until completion.
func (t *Task) Err() error { return t.err }
