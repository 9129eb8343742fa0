// Package vclock implements a deterministic discrete-event virtual clock.
//
// Every concurrent entity in the simulation — MPI ranks, asynchronous I/O
// background streams, file-system completion machinery — runs as a Proc
// registered with a Clock. Virtual time only advances when every live Proc
// is blocked (sleeping, waiting on an Event, or waiting on a Timer), at
// which point the clock jumps to the earliest pending wakeup. This gives
// fully deterministic runs that simulate hours of machine time in
// milliseconds of wall time while preserving the real concurrency
// structure: overlap, blocking, and contention.
//
// The package deliberately mirrors the small set of primitives a
// conservative parallel discrete-event simulation needs: processes
// (Go/Proc), time (Now/Sleep), one-shot condition signalling (Event), and
// cancellable timers with callbacks (AfterFunc). Timer callbacks count as
// runnable work, so a callback may freely use the full public API; time
// cannot advance underneath it.
//
// A Clock and everything built on it is confined to one goroutine: the one
// that calls Wait. A Proc is a coroutine (iter.Pull) and Wait is the loop
// that resumes them: a process that blocks switches straight back to Wait,
// which switches straight to the next — the hand-off never wakes a thread
// or visits a Go run queue, and nothing in the package takes a lock. Host
// calls made before Wait (Go, Hold and its release, AfterFunc, Event.Fire,
// Proc.Kill) only enqueue; they take effect, in call order, once Wait
// runs, and results are read after Wait returns.
//
// Determinism comes from that full serialization: at any moment at most
// one process of a Clock is running. Every wakeup — a timer window's
// sleeper batch, an Event.Fire, a Kill, a Go spawn — is parked in a FIFO
// run queue rather than delivered immediately, and the advance loop delivers
// exactly one parked wakeup whenever the clock is idle (no process
// running, no callback in flight). The woken process runs to its next
// blocking point before the next wakeup is delivered. Same-instant
// processes therefore interact with shared simulation state (message
// queues, caches, FIFO servers) in one canonical order — timer pops in
// (time, seq) order, then dynamically-triggered wakeups in the order the
// serialized execution produced them.
//
// The event engine is built for throughput: timer entries are pooled and
// recycled (generation-tagged so a stale Timer handle can never cancel or
// re-fire a recycled entry), a process whose own wakeup is the next to be
// delivered keeps running without a switch, same-instant wakeups are
// drained as a single batch, callbacks run inline in the advance loop,
// and cancellation removes the heap entry in O(log n) via its maintained
// index rather than leaving garbage for later scans.
package vclock

import (
	"errors"
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Clock is a discrete-event virtual clock. The zero value is not usable;
// construct with New. A Clock is confined to the goroutine that calls
// Wait: no method is safe for use from another goroutine while Wait runs.
type Clock struct {
	now     time.Duration
	queue   timerHeap
	seq     int64 // tiebreak for deterministic ordering of same-time entries
	running int   // procs, in-flight callbacks and Holds currently runnable
	alive   int   // procs started and not yet finished
	spawned int   // procs ever started; the next one's id
	procs   map[*Proc]struct{}
	dead    bool // deadlock detected; clock is poisoned
	deadMsg string

	// The processor handoff. Procs are coroutines and Wait resumes them:
	// deliver names the proc to run in next, the blocker yields back to
	// Wait, and Wait switches to next directly. waiting is true while
	// Wait is on the stack, which is how a Wait from inside a process is
	// told from one by the host.
	next    *Proc
	waiting bool

	free      []*timerEntry             // recycled entries (the pool)
	cbScratch []func(now time.Duration) // batch buffer for same-instant callbacks

	// The serialized run queue. Every wakeup is parked here and
	// delivered one at a time, each only once the clock is idle, so the
	// woken proc runs with every other process parked at a blocking
	// point — the order a single-CPU FIFO scheduler produces. deferHead
	// indexes the next wake to deliver; the slice is reset when drained
	// so the backing array is reused.
	deferredQ []*Proc
	deferHead int

	// waitObs, when non-nil, observes every blocking interval (sleeps
	// and event waits). Set once via SetWaitObserver before Wait.
	waitObs WaitObserver
}

// WaitObserver receives every blocking edge of the clock's processes:
// id numbers the process in spawn order from zero (a dense index an
// observer can keep per-process state under without hashing the name),
// kind is "sleep" or "event", label the event's label (empty for
// sleeps and unlabeled events) and start/end the blocked interval in
// virtual time. Implementations must be cheap — they run on every
// blocking operation, on the goroutine that called Wait.
// internal/critpath's Recorder implements this interface.
type WaitObserver interface {
	ObserveWait(id int, proc, kind, label string, start, end time.Duration)
}

// SetWaitObserver installs o as the clock's blocking-edge observer.
// Must be called before Wait.
func (c *Clock) SetWaitObserver(o WaitObserver) { c.waitObs = o }

// New returns a Clock set to virtual time zero.
func New() *Clock {
	return &Clock{procs: make(map[*Proc]struct{})}
}

// blocking reasons, formatted lazily only for deadlock reports so the hot
// Sleep path never touches fmt.
type procState uint8

const (
	stateRunning procState = iota
	stateSleeping
	stateEventWait
)

// Proc is a process registered with a Clock. All blocking operations on
// the clock take the Proc so the scheduler can account for it.
type Proc struct {
	c       *Clock
	name    string
	id      int                     // spawn order, for WaitObserver
	resume  func() (struct{}, bool) // Wait's side of the coroutine: run p to its next block point
	yield   func(struct{}) bool     // p's side: give the processor back to Wait
	state   procState
	stateAt time.Duration // wake deadline when sleeping, for deadlock reports

	// Kill support. pending is the sleep timer entry while blocked in
	// Sleep, waitingOn the event while blocked in Wait, so Kill can
	// dequeue a blocked victim; killed is checked after every wake.
	pending   *timerEntry
	waitingOn *Event
	killed    bool
	killErr   error
}

// Killed is the panic value a killed process unwinds with. Spawners that
// need to observe the death (an MPI rank wrapper recording a crash, a
// background stream failing its queue) recover it; a Killed panic that
// reaches the top of a process is absorbed by the clock, so an
// unobserved kill simply ends the process.
type Killed struct{ Reason error }

// Error makes the panic value usable as an error after recovery.
func (k Killed) Error() string {
	if k.Reason != nil {
		return "vclock: process killed: " + k.Reason.Error()
	}
	return "vclock: process killed"
}

// Kill marks p as killed. The victim unwinds with a Killed panic at its
// next blocking operation — immediately, at the current virtual instant,
// if it is already blocked in Sleep or Event.Wait (its pending wakeup is
// cancelled). Idempotent: only the first reason sticks. Kill may be
// called from another process, a timer callback, or the host before
// Wait; a process must not kill itself (panic with Killed directly
// instead).
func (p *Proc) Kill(reason error) {
	c := p.c
	if p.killed {
		return
	}
	p.killErr = reason
	p.killed = true
	if e := p.pending; e != nil {
		// Asleep: cancel the scheduled wakeup and queue it to die.
		c.queue.remove(e.index)
		c.recycle(e)
		p.pending = nil
		c.parkWake(p)
		return
	}
	if ev := p.waitingOn; ev != nil {
		// Blocked on an event: withdraw from the waiter list, so a later
		// Fire neither wakes nor keeps a dead proc, and queue it to die.
		p.waitingOn = nil
		ev.removeWaiter(p)
		c.parkWake(p)
	}
	// Otherwise the proc is runnable (or already queued to run); it dies
	// at its next blocking operation or at its queued wakeup.
}

// parkWake enqueues a wakeup on the serialized run queue. The woken proc
// carries no runnable claim while parked; the advance loop claims
// running++ at the moment it delivers it — at the waker's next block
// point, or in Wait when the waker is the host.
func (c *Clock) parkWake(p *Proc) {
	c.deferredQ = append(c.deferredQ, p)
}

// deliver delivers the head of the run queue: it claims the processor
// for that proc and names it in c.next for Wait to resume. The caller has
// checked that the clock is idle and the queue non-empty.
func (c *Clock) deliver() {
	c.next = c.deferredQ[c.deferHead]
	c.deferredQ[c.deferHead] = nil
	c.deferHead++
	if c.deferHead == len(c.deferredQ) {
		c.deferredQ = c.deferredQ[:0]
		c.deferHead = 0
	}
	c.running++
}

// park blocks p: it gives up p's runnable claim, which may advance time
// and deliver the next wakeup, and yields the processor to Wait until
// p's own wakeup is delivered. When that wakeup is the very next one (a
// lone sleeper, the last proc through a barrier) there is nobody to
// switch to and p just keeps running.
func (p *Proc) park() {
	c := p.c
	c.running--
	c.maybeAdvance()
	if c.next == p {
		c.next = nil
	} else {
		p.yield(struct{}{})
	}
	p.state = stateRunning
	p.checkKilled()
}

// checkKilled panics with Killed if the proc has been killed.
func (p *Proc) checkKilled() {
	if p.killed {
		panic(Killed{p.killErr})
	}
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Clock returns the clock the process belongs to.
func (p *Proc) Clock() *Clock { return p.c }

// Now returns the current virtual time. Time cannot advance while any
// process is runnable, so a running caller always sees a stable value.
func (c *Clock) Now() time.Duration { return c.now }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.c.now }

// totalEvents accumulates fired entries across every Clock in the
// process, so throughput can be measured over code (figure generators)
// that builds clocks internally — on several goroutines at once under
// experiments/parallel.go, which is why it alone here is atomic.
var totalEvents atomic.Int64

// TotalEvents returns the process-wide count of fired timer-queue
// entries across all clocks. Monotonic; meant for before/after deltas.
func TotalEvents() int64 { return totalEvents.Load() }

// Go spawns fn as a new process. It may be called from the host before
// Wait or from within another process. The process's first run is queued
// like any other wakeup, preserving the serialized execution order.
// A panic in fn other than Killed surfaces from Wait, on the goroutine
// that called it, and so does runtime.Goexit (t.FailNow, say).
func (c *Clock) Go(name string, fn func(p *Proc)) {
	if c.dead {
		panic("vclock: Go on deadlocked clock: " + c.deadMsg)
	}
	p := &Proc{c: c, name: name, id: c.spawned}
	c.spawned++
	// The coroutine's body starts at its first resume, i.e. when the
	// spawn's queued wakeup is delivered.
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			c.alive--
			delete(c.procs, p)
			c.running--
			// A Killed panic that nobody recovered means the spawner does
			// not care how the process ends; absorb it so the kill just
			// terminates the process. Anything else leaves the clock where
			// it stands and re-panics out of Wait.
			if r := recover(); r != nil {
				if _, ok := r.(Killed); !ok {
					panic(r)
				}
			}
			c.maybeAdvance() // may advance time or end the run
		}()
		p.checkKilled() // killed before first run: die without running fn
		fn(p)
	})
	c.alive++
	c.procs[p] = struct{}{}
	c.parkWake(p)
}

// Hold pins virtual time: while held, the clock treats the holder as
// runnable work, so time cannot advance and deadlock detection is
// suppressed. Host code has no need of it — nothing runs before Wait —
// and a Wait that finds the clock still held returns ErrHeld. The
// returned release function is idempotent.
func (c *Clock) Hold() (release func()) {
	c.running++
	released := false
	return func() {
		if !released {
			released = true
			c.running--
		}
	}
}

// ErrHeld is what Wait returns when a Hold was never released: the
// simulation is parked where it stood and resumes on the next Wait.
var ErrHeld = errors.New("vclock: Wait on a clock that is still held")

// Wait runs the simulation on the calling goroutine: it resumes one
// process at a time, each to its next blocking point, until every process
// has finished, so post-Wait reads of the clock see a quiescent
// simulation. It returns an error if the clock deadlocked, or ErrHeld.
// A panic in a process other than Killed surfaces here with its value;
// the other processes stay parked and their coroutines are leaked, as
// after a deadlock. A process or callback must not call Wait; that
// panics.
func (c *Clock) Wait() error {
	if c.waiting {
		panic("vclock: Wait called from inside a process or callback")
	}
	c.waiting = true
	defer func() { c.waiting = false }()
	c.maybeAdvance()
	for c.next != nil {
		p := c.next
		c.next = nil
		p.resume() // a panic in p other than Killed re-panics here, with its value
	}
	if c.dead {
		return fmt.Errorf("vclock: deadlock: %s", c.deadMsg)
	}
	if c.running > 0 {
		return ErrHeld
	}
	return nil
}

// Sleep suspends the process for d of virtual time. Non-positive d yields
// the processor for the current instant (other runnable work at the same
// timestamp may interleave) without advancing time for this process.
func (p *Proc) Sleep(d time.Duration) {
	c := p.c
	if d < 0 {
		d = 0
	}
	p.checkKilled()
	sleepStart := c.now
	e := c.alloc()
	e.at = c.now + d
	e.proc = p
	p.pending = e
	c.push(e)
	p.state = stateSleeping
	p.stateAt = e.at
	p.park()
	if o := c.waitObs; o != nil {
		o.ObserveWait(p.id, p.name, "sleep", "", sleepStart, c.now)
	}
}

// Event is a one-shot signal in virtual time. Waiters block until Fire is
// called; waits after Fire return immediately. An Event is embeddable by
// value: call Init before first use (NewEventNamed does so on a fresh
// heap Event) and do not copy it afterwards — the waiter list
// starts out aliasing the struct's own storage.
type Event struct {
	c     *Clock
	label string
	fired bool
	// waiters is the registration-ordered wait list. It aliases inline
	// until a second waiter registers, so the common single-waiter event
	// (a flow's completion, a task's future, a stream's wake) never
	// allocates one.
	waiters []*Proc
	inline  [1]*Proc
}

// Init (re)initializes e as an unfired event on c. label is what wait
// observers see; it has no effect on scheduling. The event must have no
// waiters.
func (e *Event) Init(c *Clock, label string) { *e = Event{c: c, label: label} }

// NewEventNamed returns an unfired Event carrying a label that wait
// observers see; the label has no effect on scheduling.
func NewEventNamed(c *Clock, label string) *Event {
	e := new(Event)
	e.Init(c, label)
	return e
}

// Reset re-arms a fired event so it can be waited on and fired again.
// Only its sole waiter may call it, after that wait returned: nothing
// else may be waiting on or about to fire the event.
func (e *Event) Reset() { e.fired = false }

// removeWaiter withdraws p from e's waiter list.
func (e *Event) removeWaiter(p *Proc) {
	for i, w := range e.waiters {
		if w == p {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}

// Fired reports whether the event has been fired.
func (e *Event) Fired() bool { return e.fired }

// Fire signals the event, queueing a wakeup for every current waiter at
// the present instant. Firing an already-fired event is a no-op. Fire
// may be called from a process, a timer callback, or the host before
// Wait. Waiters are parked in registration order.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	// Park in registration order. Kill withdraws its victim from the
	// list, so every listed waiter is still waiting.
	for _, p := range e.waiters {
		p.waitingOn = nil
		e.c.parkWake(p)
	}
	e.waiters = nil
}

// Wait blocks p until the event fires. Returns immediately if already
// fired. p must be a process of the event's clock.
func (e *Event) Wait(p *Proc) {
	c := e.c
	if p.c != c {
		panic("vclock: Event.Wait by a process of another clock")
	}
	p.checkKilled()
	if e.fired {
		return
	}
	// Capture the wait's start before parking: blocking the last runnable
	// proc advances the clock inline, so a read afterwards would see the
	// wake instant, not the block instant.
	start := c.now
	if e.waiters == nil {
		e.waiters = e.inline[:0]
	}
	e.waiters = append(e.waiters, p)
	p.waitingOn = e
	p.state = stateEventWait
	p.park()
	if o := c.waitObs; o != nil {
		o.ObserveWait(p.id, p.name, "event", e.label, start, c.now)
	}
}

// Timer is a cancellable scheduled callback created by AfterFunc. The
// handle is generation-tagged: once the callback fires (or Stop succeeds)
// the underlying pooled entry may be recycled for an unrelated timer, and
// the stale handle's Stop becomes an inert no-op.
type Timer struct {
	c     *Clock
	entry *timerEntry
	gen   uint64
}

// AfterFunc schedules fn to run at virtual time Now()+d. The callback
// counts as runnable work, so time cannot advance while it executes; it
// may call any Clock, Event, or Timer method but Wait, and must not block
// on Proc operations (it has no Proc).
func (c *Clock) AfterFunc(d time.Duration, fn func(now time.Duration)) *Timer {
	if d < 0 {
		d = 0
	}
	e := c.alloc()
	e.at = c.now + d
	e.fn = fn
	c.push(e)
	return &Timer{c: c, entry: e, gen: e.gen}
}

// Stop cancels the timer. It reports whether the timer was still pending
// (true) or had already fired or been stopped (false). Cancellation
// removes the entry from the queue in O(log n) via its heap index.
func (t *Timer) Stop() bool {
	e := t.entry
	if e.gen != t.gen {
		return false // fired or stopped; the entry may already serve another timer
	}
	t.c.queue.remove(e.index)
	t.c.recycle(e)
	return true
}

// timerEntry is a pooled heap element: either a proc wakeup (proc != nil)
// or a scheduled callback (fn != nil). index is its heap position,
// maintained by timerHeap so removal needs no scan; gen increments on
// every recycle so stale Timer handles cannot touch a reused entry.
type timerEntry struct {
	at    time.Duration
	seq   int64
	index int
	gen   uint64
	proc  *Proc // the sleeper to wake (and what Kill cancels); nil for callbacks
	fn    func(now time.Duration)
}

// alloc takes an entry from the pool (or makes one).
func (c *Clock) alloc() *timerEntry {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return &timerEntry{}
}

// recycle bumps the entry's generation (invalidating outstanding Timer
// handles), clears it, and returns it to the pool.
func (c *Clock) recycle(e *timerEntry) {
	e.gen++
	e.proc = nil
	e.fn = nil
	e.index = -1
	c.free = append(c.free, e)
}

// push stamps the entry's ordering sequence and inserts it in the heap.
func (c *Clock) push(e *timerEntry) {
	c.seq++
	e.seq = c.seq
	c.queue.push(e)
}

// maybeAdvance delivers the next serialized wakeup, advancing virtual
// time when the run queue is empty. It is entered wherever a runnable
// claim is given up — a process blocking or exiting — and once at the top
// of Wait. Each iteration first delivers one parked wake, if any — the
// woken proc then runs alone until its next blocking point, which
// re-enters this loop. With the queue drained it jumps to the earliest
// pending instant and pops every entry scheduled there as one batch:
// callbacks run to completion FIRST, inline — so a callback killing a
// proc that wakes at this same instant sets the kill flag before the
// victim resumes — and the batch's proc wakeups are parked in (time, seq)
// order for one-at-a-time delivery. Callbacks count as runnable work, so
// a nested call from one returns at once and the shared batch buffer is
// safe. The loop (instead of recursion) keeps long callback chains — e.g.
// a flow server rescheduling its completion timer for the whole run — at
// constant stack depth.
func (c *Clock) maybeAdvance() {
	for {
		if c.running > 0 || c.dead {
			return
		}
		if c.deferHead < len(c.deferredQ) {
			c.deliver()
			return
		}
		if c.alive == 0 {
			// The last process has exited: the run is over. Time never
			// advances past the final process, so timers still pending
			// (e.g. fault windows scheduled beyond the end of the run)
			// stay unfired and post-run reads of Now() are deterministic.
			return
		}
		if len(c.queue) == 0 {
			// Every process is blocked and nothing is scheduled: the
			// simulation has deadlocked. Poison the clock so Wait
			// reports it; the parked coroutines are leaked, which is
			// acceptable for a diagnosable programming error.
			c.dead = true
			c.deadMsg = c.describeStuck()
			return
		}
		t := c.queue[0].at
		c.now = t
		cbs := c.cbScratch[:0]
		var fired int64
		for len(c.queue) > 0 && c.queue[0].at == t {
			e := c.queue.pop()
			fired++
			if e.proc != nil {
				e.proc.pending = nil
				c.deferredQ = append(c.deferredQ, e.proc)
			} else {
				cbs = append(cbs, e.fn)
			}
			c.recycle(e)
		}
		c.cbScratch = cbs
		totalEvents.Add(fired)
		if len(cbs) > 0 {
			// Callbacks count as runnable work so time holds still while
			// they execute. Wakes they trigger are parked behind the
			// window's own, so every proc of the instant resumes before
			// any kill victim or event waiter a callback released.
			c.running += len(cbs)
			for _, fn := range cbs {
				fn(t)
			}
			c.running -= len(cbs)
		}
		// Loop: the next iteration delivers the window's first parked
		// wake (or evaluates the next instant after a callback-only
		// batch that parked nothing).
	}
}

func (c *Clock) describeStuck() string {
	names := make([]string, 0, len(c.procs))
	for p := range c.procs {
		var st string
		switch p.state {
		case stateSleeping:
			st = fmt.Sprintf("sleeping until %v", p.stateAt)
		case stateEventWait:
			st = "waiting on event"
		default:
			st = "running"
		}
		names = append(names, fmt.Sprintf("%s (%s)", p.name, st))
	}
	sort.Strings(names)
	return fmt.Sprintf("%d proc(s) blocked with no pending timers at t=%v: %s",
		len(names), c.now, strings.Join(names, ", "))
}

// timerHeap is a binary min-heap ordered by time, then insertion
// sequence. It keeps each entry's index current so cancellation can
// remove in O(log n).
type timerHeap []*timerEntry

func (e *timerEntry) before(o *timerEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *timerHeap) push(e *timerEntry) {
	*h = append(*h, e)
	h.up(len(*h)-1, e)
}

// pop removes and returns the earliest entry.
func (h *timerHeap) pop() *timerEntry { return h.remove(0) }

// remove takes out the entry at index i: the last entry takes its place
// and sifts whichever way restores the order.
func (h *timerHeap) remove(i int) *timerEntry {
	old := *h
	n := len(old) - 1
	e, last := old[i], old[n]
	old[n] = nil
	*h = old[:n]
	e.index = -1
	if i < n {
		if !h.down(i, last) {
			h.up(i, last)
		}
	}
	return e
}

// up places e at or above the hole at index i.
func (h timerHeap) up(i int, e *timerEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = e
	e.index = i
}

// down places e at or below the hole at index i and reports whether it
// moved.
func (h timerHeap) down(i int, e *timerEntry) bool {
	start, n := i, len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = e
	e.index = i
	return i > start
}
