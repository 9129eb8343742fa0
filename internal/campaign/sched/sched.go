// Package sched is the campaign service's scheduler: per-tenant FIFOs
// under a round-robin ring, the single-flight table, the point LRU with
// its durable-store hooks, supervision (supervise.go) and the
// pause/drain/close lifecycle, behind one mutex. It knows work only as
// "job J has points 0..n-1" and imports neither the HTTP surface, the
// campaign state nor the simulator (TestImportsStayNarrow), so every
// transition is a method a test can call with a fake job, clock and
// timer.
package sched

import (
	"context"
	"errors"
	"sync"
	"time"

	"asyncio/internal/metrics"
)

// Job is all the scheduler sees of a campaign. PointKey and Deliver are
// called with the scheduler lock held (lock order: scheduler, then
// job); ComputePoint runs on a worker with no lock held and may panic.
type Job interface {
	PointKey(i int) string
	ComputePoint(i int) ([]byte, error)
	Deliver(i int, val []byte, err error)
}

// Config sizes the scheduler; the fields mean what campaign.Config's
// do, and the service applies its defaults before they get here.
type Config struct {
	Workers, QueueDepth, CacheSize int
	PointDeadline                  time.Duration
	PoisonStrikes                  int
	RedispatchBackoff              time.Duration
	// The durable store's two hooks, both optional: Fallback is
	// consulted on an LRU miss, WriteThrough gets every computed point.
	Fallback     func(key string) ([]byte, bool)
	WriteThrough func(key string, val []byte)
}

// Dispatch is one scheduling decision, recorded for fairness
// assertions: which tenant's point was handed to a worker, how many
// that tenant still had queued afterwards, and how many remained in
// total.
type Dispatch struct {
	Tenant  string
	Pending int
	Queued  int
}

// tenant is one fairness class: a FIFO of its queued flights.
type tenant struct {
	name   string
	q      []*flight
	served *metrics.Counter // points requested by this tenant
}

// flight is one point queued or being computed, single-flight: every
// job wanting the same point subscribes instead of queueing it again.
// subs[0] is the job the point was admitted for; it computes.
type flight struct {
	key      string
	t        *tenant
	subs     []subscriber
	deadline time.Time // zero = no deadline; joins extend to the max
}

type subscriber struct {
	job   Job
	point int
}

// work is a dispatched flight, with copies of the two things its worker
// reads outside the lock (joins change them under it).
type work struct {
	*flight
	sub      subscriber // subs[0]
	deadline time.Time
}

// Scheduler is the scheduling state machine. Construct with New, launch
// the pool with Start, stop with Drain then Close.
type Scheduler struct {
	cfg   Config
	cache *Cache
	reg   *metrics.Registry
	now   func() time.Time
	after func(time.Duration, func())

	admitted, rejected *metrics.Counter
	hits, misses       *metrics.Counter
	served             *metrics.Counter
	panics             *metrics.Counter
	redispatched       *metrics.Counter
	poisonedCtr        *metrics.Counter
	deadlineExpired    *metrics.Counter
	queueDepth         *metrics.Gauge
	inflight           *metrics.Gauge

	mu                sync.Mutex
	cond              *sync.Cond // dispatch wakeups: new work, resume, close
	tenants           map[string]*tenant
	ring              []*tenant // round-robin order (first admitted first)
	next              int       // ring cursor
	flights           map[string]*flight
	queued            int              // total queued flights across tenants
	running           int              // flights currently on a worker
	pendingRedispatch int              // panicked flights waiting out their backoff
	strikes           map[string]int   // consecutive panics per point key
	poisoned          map[string]error // poison-quarantined keys → stable error
	paused            bool
	draining          bool
	closed            bool
	log               []Dispatch

	wg sync.WaitGroup
}

// New returns an idle scheduler instrumented on reg. Deadlines are read
// from now and re-dispatch backoff waits on after (time.Now and
// time.AfterFunc in the daemon).
func New(cfg Config, reg *metrics.Registry, now func() time.Time, after func(time.Duration, func())) *Scheduler {
	s := &Scheduler{
		cfg: cfg, cache: NewCache(cfg.CacheSize), reg: reg, now: now, after: after,
		tenants:  make(map[string]*tenant),
		flights:  make(map[string]*flight),
		strikes:  make(map[string]int),
		poisoned: make(map[string]error),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Fallback != nil {
		s.cache.SetFallback(cfg.Fallback)
	}
	s.admitted = reg.Counter("campaign.admitted")
	s.rejected = reg.Counter("campaign.rejected")
	s.hits = reg.Counter("campaign.cache.hits")
	s.misses = reg.Counter("campaign.cache.misses")
	s.served = reg.Counter("campaign.points.served")
	s.panics = reg.Counter("campaign.panics")
	s.redispatched = reg.Counter("campaign.redispatches")
	s.poisonedCtr = reg.Counter("campaign.poisoned")
	s.deadlineExpired = reg.Counter("campaign.deadline.expired")
	s.queueDepth = reg.Gauge("campaign.queue.depth")
	s.inflight = reg.Gauge("campaign.workers.inflight")
	return s
}

// Start launches the worker pool.
func (s *Scheduler) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// ErrDraining rejects admission once Drain or Close has begun.
var ErrDraining = errors.New("draining")

// Admit resolves job's n points against the poison set, the LRU (and
// the store behind it) and the flights in the air, delivering what it
// can at once, and queues the rest under tenant — all or nothing: if
// they do not fit it returns a *BackpressureError and nothing of the
// job stays behind. It reports how many points were queued.
func (s *Scheduler) Admit(job Job, tenantName string, n int) (queued int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		s.rejected.Add(1)
		return 0, ErrDraining
	}
	var deadline time.Time
	if s.cfg.PointDeadline > 0 {
		deadline = s.now().Add(s.cfg.PointDeadline)
	}
	type pending struct {
		key   string
		point int
		join  *flight // nil = a miss that needs its own flight
	}
	var pend []pending
	for i := 0; i < n; i++ {
		key := job.PointKey(i)
		if perr, ok := s.poisoned[key]; ok {
			// Poison-quarantined: the stable rejection, never a retry.
			job.Deliver(i, nil, perr)
		} else if val, ok := s.cache.Get(key); ok {
			job.Deliver(i, val, nil)
		} else {
			// A flight already computing this point is joined rather
			// than queued again, and counts as a hit.
			f := s.flights[key]
			if f == nil {
				queued++
			}
			pend = append(pend, pending{key, i, f})
		}
	}
	if s.queued+queued > s.cfg.QueueDepth {
		s.rejected.Add(1)
		return 0, &BackpressureError{RetryAfter: retryAfterFor(tenantName, s.queued, s.cfg.Workers)}
	}
	t := s.tenantLocked(tenantName)
	for _, p := range pend {
		sub := subscriber{job, p.point}
		if f := p.join; f != nil {
			f.subs = append(f.subs, sub)
			if !f.deadline.IsZero() && (deadline.IsZero() || deadline.After(f.deadline)) {
				f.deadline = deadline
			}
			continue
		}
		f := &flight{key: p.key, t: t, subs: []subscriber{sub}, deadline: deadline}
		s.flights[p.key] = f
		t.q = append(t.q, f)
	}
	s.queued += queued
	s.queueDepth.Set(float64(s.queued))
	s.admitted.Add(1)
	s.hits.Add(int64(n - queued))
	s.misses.Add(int64(queued))
	t.served.Add(int64(n))
	if queued > 0 {
		s.cond.Broadcast()
	}
	return queued, nil
}

// Readmit accounts for a repeat submission of an admitted job: its n
// points are resolved or in flight already, so n hits and no work.
func (s *Scheduler) Readmit(tenantName string, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		s.rejected.Add(1)
		return ErrDraining
	}
	s.admitted.Add(1)
	s.hits.Add(int64(n))
	s.tenantLocked(tenantName).served.Add(int64(n))
	return nil
}

// tenantLocked returns the named tenant, appending it to the ring the
// first time it is admitted.
func (s *Scheduler) tenantLocked(name string) *tenant {
	t := s.tenants[name]
	if t == nil {
		t = &tenant{name: name, served: s.reg.Counter("campaign.tenant.served." + name)}
		s.tenants[name] = t
		s.ring = append(s.ring, t)
	}
	return t
}

// Pause stops dispatching queued work to workers; already-running
// points finish.
func (s *Scheduler) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume restarts dispatch after Pause.
func (s *Scheduler) Resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// DispatchLog returns a copy of the dispatch decisions so far.
func (s *Scheduler) DispatchLog() []Dispatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Dispatch(nil), s.log...)
}

// Accepting reports whether Admit would still take work: false once
// Drain or Close has begun.
func (s *Scheduler) Accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.closed
}

// idle reports whether nothing is queued, running or waiting out a
// re-dispatch backoff.
func (s *Scheduler) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued == 0 && s.running == 0 && s.pendingRedispatch == 0
}

// Drain stops admission and waits until every queued and running point
// has completed or ctx expires.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for !s.idle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Close stops the worker pool without waiting for queued work and
// blocks until the workers have exited. Queued points are never
// delivered: the caller tells their jobs.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
