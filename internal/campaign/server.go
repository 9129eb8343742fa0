package campaign

import (
	"context"
	"time"

	"asyncio/internal/campaign/sched"
	"asyncio/internal/campaign/store"
	"asyncio/internal/metrics"
)

// Config sizes the service.
type Config struct {
	// Workers is the simulation worker pool size (default 2).
	Workers int
	// QueueDepth bounds the admission queue: the total simulation
	// points queued but not yet dispatched (default 256). A POST whose
	// uncached points would overflow it is rejected with 429.
	QueueDepth int
	// CacheSize bounds the point result LRU (default 1024 entries).
	CacheSize int
	// Store, when set, persists computed points behind the LRU: worker
	// results are written through, and LRU misses fall back to it. The
	// server takes over reads/writes but not the store's lifecycle —
	// the caller still owns Open and Close.
	Store *store.Store
	// StoreRecovery, when set, is the report from the store's Open scan,
	// surfaced by /readyz so operators can see what a restart recovered.
	StoreRecovery *store.RecoveryReport
	// PointDeadline bounds how long a point may wait plus compute before
	// its campaign gets a typed DeadlineError (0 = no deadline). On a
	// single-flight join the flight keeps the latest deadline among its
	// subscribers.
	PointDeadline time.Duration
	// PoisonStrikes is how many panics a point is allowed before it is
	// poison-quarantined instead of retried (default 3).
	PoisonStrikes int
	// RedispatchBackoff is the base backoff before re-dispatching a
	// panicked point (default 5ms, doubling per strike, capped at 8×).
	RedispatchBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.PoisonStrikes <= 0 {
		c.PoisonStrikes = 3
	}
	if c.RedispatchBackoff <= 0 {
		c.RedispatchBackoff = 5 * time.Millisecond
	}
	return c
}

// Cache is the scheduler's point LRU, under the name benchmark/
// constructs one by.
type Cache = sched.Cache

// NewCache returns an LRU holding at most max entries.
func NewCache(max int) *Cache { return sched.NewCache(max) }

// Server is the campaign service: the HTTP surface (http.go) over a
// registry of campaigns (campaign.go) whose points a sched.Scheduler
// runs. Construct with NewServer, mount Handler on an http.Server, and
// stop with Shutdown (drain) or Close (abrupt).
type Server struct {
	cfg       Config
	reg       *metrics.Registry
	sched     *sched.Scheduler
	campaigns registry
}

// NewServer starts the worker pool and returns the service.
func NewServer(cfg Config) *Server {
	return newServer(cfg, ComputePoint, time.Now)
}

// newServer is NewServer with the compute function and the deadline
// clock injected, for tests of the supervision wire format.
func newServer(cfg Config, compute func(*Spec, int) ([]byte, error), now func() time.Time) *Server {
	cfg = cfg.withDefaults()
	start := time.Now()
	s := &Server{
		cfg:       cfg,
		reg:       metrics.NewRegistryWithNow(func() time.Duration { return time.Since(start) }),
		campaigns: registry{campaigns: make(map[string]*Campaign), compute: compute},
	}
	sc := sched.Config{
		Workers: cfg.Workers, QueueDepth: cfg.QueueDepth, CacheSize: cfg.CacheSize,
		PointDeadline: cfg.PointDeadline, PoisonStrikes: cfg.PoisonStrikes,
		RedispatchBackoff: cfg.RedispatchBackoff,
	}
	storeHits := s.reg.Counter("campaign.store.hits")
	if st := cfg.Store; st != nil {
		st.Instrument(s.reg)
		sc.Fallback = func(key string) ([]byte, bool) {
			val, ok, err := st.Get(key)
			if err != nil || !ok {
				// A read error (rot, I/O) is a miss: recompute rather
				// than serve unverified bytes. The store counts it.
				return nil, false
			}
			if ValidatePointPayload(val) != nil {
				return nil, false
			}
			storeHits.Add(1)
			return val, true
		}
		// Put fails only on a closed store or an oversized key; either
		// way the point is still served from the LRU.
		sc.WriteThrough = func(key string, val []byte) { _ = st.Put(key, val) }
	}
	s.sched = sched.New(sc, s.reg, now, func(d time.Duration, f func()) { time.AfterFunc(d, f) })
	s.sched.Start()
	return s
}

// Metrics exposes the self-instrumentation registry (tests assert cache
// hit ratios and drain invariants against it).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Drain stops admission (new POSTs get 503) and waits until every
// queued and running point has completed or ctx expires.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Close stops the worker pool without waiting for queued work and
// blocks until the workers exit. Campaigns with undispatched points are
// aborted: their result waiters get a typed 503 and their event streams
// a terminal "aborted" record, so clients can tell a cut-off campaign
// from a finished one. Use Shutdown for a clean stop.
func (s *Server) Close() {
	s.sched.Close()
	s.campaigns.abortAll()
}

// Shutdown drains then closes.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.Drain(ctx)
	s.Close()
	return err
}

// submit admits one canonical spec and returns its campaign: the
// registered one when the same tenant already submitted the same
// content, otherwise a new one whose points the scheduler resolved or
// queued, all or nothing. known reports that no new simulation work was
// scheduled (HTTP 200 rather than 202).
func (s *Server) submit(spec *Spec) (c *Campaign, known bool, err error) {
	total, err := spec.PointCount()
	if err != nil {
		return nil, false, &SpecError{Field: "sweep", Msg: err.Error()}
	}
	id := spec.ID()
	r := &s.campaigns
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.campaigns[id]; c != nil {
		return c, true, s.sched.Readmit(spec.Tenant, total)
	}
	c = newCampaign(id, spec, total, r.compute)
	queued, err := s.sched.Admit(c, spec.Tenant, total)
	if err != nil {
		return nil, false, err
	}
	r.campaigns[id] = c
	return c, queued == 0, nil
}
