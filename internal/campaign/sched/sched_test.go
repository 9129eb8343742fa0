package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncio/internal/metrics"
)

// fakeJob is a campaign as the scheduler sees it: keys, a compute
// function, and a record of what was delivered.
type fakeJob struct {
	keys    []string
	compute func(i int) ([]byte, error)

	mu   sync.Mutex
	vals [][]byte
	errs []error
	left int
	done chan struct{} // closed when every point has been delivered
}

func newJob(compute func(i int) ([]byte, error), keys ...string) *fakeJob {
	return &fakeJob{keys: keys, compute: compute, vals: make([][]byte, len(keys)),
		errs: make([]error, len(keys)), left: len(keys), done: make(chan struct{})}
}

func (j *fakeJob) PointKey(i int) string              { return j.keys[i] }
func (j *fakeJob) ComputePoint(i int) ([]byte, error) { return j.compute(i) }

func (j *fakeJob) Deliver(i int, val []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.vals[i], j.errs[i] = val, err
	if j.left--; j.left == 0 {
		close(j.done)
	}
}

func (j *fakeJob) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// echo computes a point as its own key.
func echo(keys ...string) *fakeJob {
	var j *fakeJob
	j = newJob(func(i int) ([]byte, error) { return []byte(j.keys[i]), nil }, keys...)
	return j
}

// fakeClock is the injected deadline clock.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.UnixMicro(1_000_000).Add(time.Duration(c.ns.Load())) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// fakeTimer is the injected backoff timer: it records what was asked
// for and fires only when told to.
type fakeTimer struct {
	mu      sync.Mutex
	delays  []time.Duration
	pending []func()
}

func (ft *fakeTimer) after(d time.Duration, f func()) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.delays = append(ft.delays, d)
	ft.pending = append(ft.pending, f)
}

func (ft *fakeTimer) fire() {
	ft.mu.Lock()
	fs := ft.pending
	ft.pending = nil
	ft.mu.Unlock()
	for _, f := range fs {
		f()
	}
}

type harness struct {
	*Scheduler
	clock *fakeClock
	timer *fakeTimer
}

// newSched builds a scheduler on a fake clock and timer. It launches no
// workers: tests drive it with step, or call Start themselves.
func newSched(cfg Config) harness {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 256
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.PoisonStrikes == 0 {
		cfg.PoisonStrikes = 3
	}
	if cfg.RedispatchBackoff == 0 {
		cfg.RedispatchBackoff = 5 * time.Millisecond
	}
	h := harness{clock: &fakeClock{}, timer: &fakeTimer{}}
	reg := metrics.NewRegistryWithNow(func() time.Duration { return 0 })
	h.Scheduler = New(cfg, reg, h.clock.now, h.timer.after)
	return h
}

// step is one turn of a worker, on the test's goroutine: pop the next
// task, run it, finish it. It reports whether there was a task.
func (h harness) step() bool {
	h.mu.Lock()
	w, ok := h.nextLocked()
	h.mu.Unlock()
	if ok {
		val, err := h.run(w)
		h.finish(w, val, err)
	}
	return ok
}

func (h harness) counter(name string) int64 {
	if c := h.reg.FindCounter(name); c != nil {
		return c.Value()
	}
	return 0
}

func mustAdmit(t *testing.T, s *Scheduler, j *fakeJob, tenant string) int {
	t.Helper()
	queued, err := s.Admit(j, tenant, len(j.keys))
	if err != nil {
		t.Fatalf("Admit(%v) for %s: %v", j.keys, tenant, err)
	}
	return queued
}

// TestAdmitAllOrNothing pins admission: resolved points are delivered
// at once, misses are queued, a job that does not fit is rejected whole
// — no flight joined, no deadline extended, no tenant registered — and
// fits once the queue has drained.
func TestAdmitAllOrNothing(t *testing.T) {
	h := newSched(Config{QueueDepth: 2, PointDeadline: time.Second})
	a := echo("k0", "k1")
	if q := mustAdmit(t, h.Scheduler, a, "alice"); q != 2 {
		t.Fatalf("queued %d of a's points, want 2", q)
	}
	h.clock.advance(500 * time.Millisecond)

	// b joins k1 and needs two points of its own: 2 queued + 2 > depth.
	b := echo("k1", "k2", "k3")
	_, err := h.Admit(b, "bob", 3)
	var bp *BackpressureError
	if !errors.As(err, &bp) || bp.RetryAfter != retryAfterFor("bob", 2, 1) {
		t.Fatalf("overflowing Admit: %v, want a BackpressureError carrying retryAfterFor", err)
	}
	h.mu.Lock()
	f := h.flights["k1"]
	if len(f.subs) != 1 || len(h.flights) != 2 || h.queued != 2 {
		t.Errorf("rejected job left state behind: %d subscribers on k1, %d flights, %d queued", len(f.subs), len(h.flights), h.queued)
	}
	if want := h.clock.now().Add(500 * time.Millisecond); !f.deadline.Equal(want) {
		t.Errorf("rejected join moved k1's deadline to %v, want %v", f.deadline, want)
	}
	if h.tenants["bob"] != nil || len(h.ring) != 1 {
		t.Errorf("rejected tenant was registered: ring %d", len(h.ring))
	}
	h.mu.Unlock()
	if got := h.counter("campaign.rejected"); got != 1 {
		t.Errorf("campaign.rejected = %d, want 1", got)
	}

	for h.step() {
	}
	if !a.finished() || string(a.vals[1]) != "k1" {
		t.Fatalf("a not delivered after its points ran: %q", a.vals)
	}
	// Now k1 is cached: b needs two points, and they fit.
	if q := mustAdmit(t, h.Scheduler, b, "bob"); q != 2 {
		t.Fatalf("queued %d of b's points, want 2", q)
	}
	if string(b.vals[0]) != "k1" {
		t.Error("cached point was not delivered at admission")
	}
	for h.step() {
	}
	if !b.finished() {
		t.Fatal("b not delivered")
	}
	if hits, misses := h.counter("campaign.cache.hits"), h.counter("campaign.cache.misses"); hits != 1 || misses != 4 {
		t.Errorf("hits %d misses %d, want 1 and 4", hits, misses)
	}
	if got := h.counter("campaign.tenant.served.bob"); got != 3 {
		t.Errorf("bob credited %d points, want 3 (rejections credit nothing)", got)
	}
}

// TestSingleFlight: two jobs wanting the same point share one compute,
// and a joiner keeps the flight alive past the first job's deadline.
func TestSingleFlight(t *testing.T) {
	h := newSched(Config{PointDeadline: time.Second})
	var computes atomic.Int64
	compute := func(int) ([]byte, error) { computes.Add(1); return []byte("v"), nil }
	a, b := newJob(compute, "k"), newJob(compute, "k")
	mustAdmit(t, h.Scheduler, a, "alice")
	h.clock.advance(500 * time.Millisecond)
	if q := mustAdmit(t, h.Scheduler, b, "bob"); q != 0 {
		t.Fatalf("joiner queued %d points, want 0", q)
	}
	h.clock.advance(700 * time.Millisecond) // past a's deadline, inside b's
	for h.step() {
	}
	if computes.Load() != 1 {
		t.Errorf("point computed %d times, want once", computes.Load())
	}
	for _, j := range []*fakeJob{a, b} {
		if !j.finished() || j.errs[0] != nil || string(j.vals[0]) != "v" {
			t.Errorf("subscriber got %q, %v", j.vals[0], j.errs[0])
		}
	}
	if h.Readmit("alice", 1) != nil || h.counter("campaign.admitted") != 3 || h.counter("campaign.cache.hits") != 2 {
		t.Errorf("Readmit: admitted %d hits %d, want 3 and 2", h.counter("campaign.admitted"), h.counter("campaign.cache.hits"))
	}
}

// TestStoreHooks: an LRU miss consults Fallback before queueing, and
// every computed point is written through.
func TestStoreHooks(t *testing.T) {
	disk := map[string][]byte{"old": []byte("from-disk")}
	h := newSched(Config{
		Fallback:     func(k string) ([]byte, bool) { v, ok := disk[k]; return v, ok },
		WriteThrough: func(k string, v []byte) { disk[k] = v },
	})
	j := echo("old", "new")
	if q := mustAdmit(t, h.Scheduler, j, "t"); q != 1 {
		t.Fatalf("queued %d points, want only the one the store lacks", q)
	}
	for h.step() {
	}
	if string(j.vals[0]) != "from-disk" || string(disk["new"]) != "new" {
		t.Errorf("served %q from the store, wrote through %q", j.vals[0], disk["new"])
	}
}

// TestServiceFairDispatch pins the round-robin scheduler: with two
// tenants' work queued, dispatch alternates between them in first-seen
// order for as long as both have pending tasks.
func TestServiceFairDispatch(t *testing.T) {
	h := newSched(Config{QueueDepth: 64})
	const perTenant = 3
	for i := 0; i < perTenant; i++ {
		for _, tenant := range []string{"alice", "bob"} {
			mustAdmit(t, h.Scheduler, echo(fmt.Sprintf("%s/%d", tenant, i)), tenant)
		}
	}
	// carol arrives late with a burst; she gets every third slot, not
	// the tail of the queue.
	mustAdmit(t, h.Scheduler, echo("carol/0", "carol/1"), "carol")
	for h.step() {
	}
	var got []string
	for _, d := range h.DispatchLog() {
		got = append(got, d.Tenant)
	}
	want := "alice bob carol alice bob carol alice bob"
	if strings.Join(got, " ") != want {
		t.Errorf("dispatch order %v, want %s", got, want)
	}
	if last := h.DispatchLog()[len(got)-1]; last.Pending != 0 || last.Queued != 0 {
		t.Errorf("last dispatch left %+v, want nothing pending", last)
	}
}

// TestServiceSoak hammers a running scheduler from 64 goroutines across
// four tenants (run with -race in CI) and then audits the books: every
// admission is accounted as admitted or rejected, every admitted job is
// delivered, per-tenant credits add up, Retry-After stays in its
// tenant's jittered band, no tenant is starved, and after a drain
// nothing is queued, in flight or left in the single-flight table.
func TestServiceSoak(t *testing.T) {
	const (
		clients    = 64
		perClient  = 4
		tenantMod  = 4
		workers    = 4
		queueDepth = 8 // small enough that bursts overflow
	)
	h := newSched(Config{Workers: workers, QueueDepth: queueDepth, CacheSize: 4})
	h.Start()
	defer h.Close()

	var posts, accepted, throttled atomic.Int64
	var mu sync.Mutex
	var jobs []*fakeJob
	retryByTenant := make(map[string][]int)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%tenantMod)
			for j := 0; j < perClient; j++ {
				// A small pool of keys: duplicates collide in the LRU
				// and the single-flight table, distinct ones keep the
				// workers busy.
				job := newJob(func(int) ([]byte, error) {
					time.Sleep(100 * time.Microsecond)
					return []byte("v"), nil
				}, "k"+strconv.Itoa((7*i+13*j)%48))
				// Backpressure is an answer, not a failure: come back
				// until the queue has room.
				for {
					_, err := h.Admit(job, tenant, 1)
					posts.Add(1)
					var bp *BackpressureError
					if errors.As(err, &bp) {
						throttled.Add(1)
						mu.Lock()
						retryByTenant[tenant] = append(retryByTenant[tenant], bp.RetryAfter)
						mu.Unlock()
						time.Sleep(100 * time.Microsecond)
						continue
					}
					if err != nil {
						t.Errorf("client %d admission %d: %v", i, j, err)
					}
					accepted.Add(1)
					mu.Lock()
					jobs = append(jobs, job)
					mu.Unlock()
					break
				}
			}
		}(i)
	}
	wg.Wait()
	if err := h.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	maxLoad := queueDepth / (workers * 4)
	for tenant, vals := range retryByTenant {
		base := retryAfterFor(tenant, 0, workers)
		for _, ra := range vals {
			if ra < base || ra > base+maxLoad {
				t.Errorf("tenant %s: Retry-After %d outside jittered band [%d, %d]", tenant, ra, base, base+maxLoad)
			}
		}
	}
	admitted, rejected := h.counter("campaign.admitted"), h.counter("campaign.rejected")
	t.Logf("%d admitted, %d rejected, %d dispatched", admitted, rejected, len(h.DispatchLog()))
	if admitted != accepted.Load() || rejected != throttled.Load() || admitted+rejected != posts.Load() {
		t.Errorf("admitted %d (callers saw %d) + rejected %d (callers saw %d) != %d admissions",
			admitted, accepted.Load(), rejected, throttled.Load(), posts.Load())
	}
	for _, j := range jobs {
		if !j.finished() || j.errs[0] != nil || string(j.vals[0]) != "v" {
			t.Fatalf("admitted job %v not delivered after drain: %q, %v", j.keys, j.vals[0], j.errs[0])
		}
	}
	// Every job here has one point and the tenant is credited at
	// admission, so the per-tenant counters sum to the admitted count.
	var tenantSum int64
	for i := 0; i < tenantMod; i++ {
		tenantSum += h.counter(fmt.Sprintf("campaign.tenant.served.t%d", i))
	}
	if tenantSum != admitted {
		t.Errorf("per-tenant served sum %d != admitted %d", tenantSum, admitted)
	}
	if hits, misses := h.counter("campaign.cache.hits"), h.counter("campaign.cache.misses"); hits+misses != admitted ||
		misses != h.counter("campaign.points.served") {
		t.Errorf("hits %d + misses %d != admitted %d, or misses != %d points served",
			hits, misses, admitted, h.counter("campaign.points.served"))
	}
	// Drained means idle.
	for _, name := range []string{"campaign.queue.depth", "campaign.workers.inflight"} {
		if g := h.reg.FindGauge(name); g == nil || g.Value() != 0 {
			t.Errorf("%s not zero after drain: %v", name, g)
		}
	}
	h.mu.Lock()
	if len(h.flights) != 0 || len(h.strikes) != 0 {
		t.Errorf("%d flights and %d strike entries left after drain", len(h.flights), len(h.strikes))
	}
	h.mu.Unlock()
	// Fair-share bound: round-robin means a tenant never gets two
	// consecutive dispatches while another tenant had queued work
	// (Queued counts everyone's remaining tasks, Pending only the
	// dispatched tenant's — a gap between them is other tenants' work).
	log := h.DispatchLog()
	if int64(len(log)) != h.counter("campaign.cache.misses") {
		t.Fatalf("%d dispatches for %d misses", len(log), h.counter("campaign.cache.misses"))
	}
	for i := 1; i < len(log); i++ {
		if prev := log[i-1]; log[i].Tenant == prev.Tenant && prev.Queued > prev.Pending {
			t.Errorf("dispatch %d: tenant %s served twice in a row while others had %d queued tasks",
				i, prev.Tenant, prev.Queued-prev.Pending)
		}
	}
	if _, err := h.Admit(echo("late"), "t0", 1); !errors.Is(err, ErrDraining) {
		t.Errorf("Admit after Drain: %v, want ErrDraining", err)
	}
}

// TestPanicPoisonQuarantine pins supervision's unhappy path: a point
// that panics every time is re-dispatched after base, then 2×base,
// burns its strikes, and is quarantined under a stable typed error that
// every later admission gets without a single new compute — while
// another tenant's work on the same scheduler completes untouched.
func TestPanicPoisonQuarantine(t *testing.T) {
	h := newSched(Config{PoisonStrikes: 3, RedispatchBackoff: time.Millisecond})
	var attempts int
	bad := newJob(func(int) ([]byte, error) { attempts++; panic("injected fault") }, "bad")
	good := echo("good")
	mustAdmit(t, h.Scheduler, bad, "mallory")
	mustAdmit(t, h.Scheduler, good, "alice")

	for h.step() { // bad panics once, good completes
	}
	if !good.finished() || good.errs[0] != nil {
		t.Fatal("healthy tenant stalled behind a panicking one")
	}
	if bad.finished() || attempts != 1 || len(h.timer.pending) != 1 {
		t.Fatalf("after strike 1: delivered %v, %d attempts, %d timers", bad.finished(), attempts, len(h.timer.pending))
	}
	for h.timer.fire(); h.step(); h.timer.fire() {
	}

	var poe *PoisonedError
	var pe *PanicError
	if !bad.finished() || !errors.As(bad.errs[0], &poe) || !errors.Is(bad.errs[0], ErrSupervised) {
		t.Fatalf("verdict %v, want a PoisonedError", bad.errs[0])
	}
	if poe.Strikes != 3 || poe.Key != "bad" || !errors.As(poe.Cause, &pe) || pe.Value != "injected fault" {
		t.Errorf("poison verdict %+v", poe)
	}
	if want := []time.Duration{time.Millisecond, 2 * time.Millisecond}; len(h.timer.delays) != 2 ||
		h.timer.delays[0] != want[0] || h.timer.delays[1] != want[1] {
		t.Errorf("backoffs %v, want %v", h.timer.delays, want)
	}
	if attempts != 3 || h.counter("campaign.panics") != 3 || h.counter("campaign.redispatches") != 2 || h.counter("campaign.poisoned") != 1 {
		t.Errorf("%d attempts, %d panics, %d redispatches, %d poisoned; want 3, 3, 2, 1", attempts,
			h.counter("campaign.panics"), h.counter("campaign.redispatches"), h.counter("campaign.poisoned"))
	}

	// Stable rejection: the same error value, forever.
	again := newJob(bad.compute, "bad")
	if q := mustAdmit(t, h.Scheduler, again, "mallory"); q != 0 || !again.finished() || again.errs[0] != bad.errs[0] {
		t.Errorf("resubmitting a poisoned point: queued %d, verdict %v", q, again.errs[0])
	}
	if attempts != 3 {
		t.Errorf("resubmitting a poisoned point recomputed it (%d attempts)", attempts)
	}
}

// TestDrainWaitsForRedispatch: a panicked task waiting out its backoff
// is neither queued nor running, and a drain must still wait for it.
func TestDrainWaitsForRedispatch(t *testing.T) {
	h := newSched(Config{})
	var attempts int
	j := newJob(func(int) ([]byte, error) {
		if attempts++; attempts == 1 {
			panic("once")
		}
		return []byte("ok"), nil
	}, "k")
	mustAdmit(t, h.Scheduler, j, "t")
	h.step()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := h.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a re-dispatch in the air returned %v", err)
	}
	h.timer.fire()
	h.step()
	if err := h.Drain(context.Background()); err != nil || !j.finished() || j.errs[0] != nil {
		t.Fatalf("Drain after the retry: %v; delivered %v, %v", err, j.finished(), j.errs[0])
	}
}

// TestRedispatchThenSucceed pins the capped-backoff retry: a point that
// panics twice and then succeeds delivers the right bytes to the LRU
// and its job, with the strikes wiped for the next time.
func TestRedispatchThenSucceed(t *testing.T) {
	h := newSched(Config{PoisonStrikes: 5, RedispatchBackoff: time.Millisecond})
	var attempts int
	j := newJob(func(int) ([]byte, error) {
		if attempts++; attempts <= 2 {
			panic("transient fault")
		}
		return []byte("ok"), nil
	}, "k")
	mustAdmit(t, h.Scheduler, j, "t")
	for h.step(); !j.finished(); h.step() {
		h.timer.fire()
	}
	if j.errs[0] != nil || string(j.vals[0]) != "ok" || attempts != 3 {
		t.Fatalf("delivered %q, %v after %d attempts", j.vals[0], j.errs[0], attempts)
	}
	if v, ok := h.cache.Get("k"); !ok || !bytes.Equal(v, j.vals[0]) {
		t.Error("recovered point is not in the LRU")
	}
	if h.counter("campaign.redispatches") != 2 || h.counter("campaign.poisoned") != 0 {
		t.Errorf("redispatches %d poisoned %d, want 2 and 0", h.counter("campaign.redispatches"), h.counter("campaign.poisoned"))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.strikes) != 0 || h.pendingRedispatch != 0 {
		t.Errorf("%d strike entries, %d pending re-dispatches left after success — stale state would poison a healthy key",
			len(h.strikes), h.pendingRedispatch)
	}
}

// TestDeadlineExpired pins deadlines on the fake clock: a point whose
// deadline passes while it is queued gets a typed error instead of a
// compute, and a panicked point whose backoff would overrun the
// deadline is not retried.
func TestDeadlineExpired(t *testing.T) {
	h := newSched(Config{PointDeadline: time.Second, RedispatchBackoff: 400 * time.Millisecond})
	var computes int
	late := newJob(func(int) ([]byte, error) { computes++; return nil, nil }, "late")
	mustAdmit(t, h.Scheduler, late, "t")
	h.clock.advance(2 * time.Second)
	h.step()
	var dle *DeadlineError
	if !late.finished() || !errors.As(late.errs[0], &dle) || dle.Key != "late" || !errors.Is(late.errs[0], ErrSupervised) {
		t.Fatalf("verdict %v, want a DeadlineError for late", late.errs[0])
	}
	if computes != 0 || h.counter("campaign.deadline.expired") != 1 {
		t.Errorf("%d computes, deadline.expired %d; want 0 and 1", computes, h.counter("campaign.deadline.expired"))
	}

	flaky := newJob(func(int) ([]byte, error) { panic("fault") }, "flaky")
	mustAdmit(t, h.Scheduler, flaky, "t")
	h.step() // strike 1 at +0: 400ms backoff fits
	h.clock.advance(700 * time.Millisecond)
	h.timer.fire()
	h.step() // strike 2 at +700ms: an 800ms backoff does not
	if !flaky.finished() || !errors.As(flaky.errs[0], &dle) || len(h.timer.pending) != 0 {
		t.Fatalf("verdict %v with %d timers pending, want a DeadlineError and none", flaky.errs[0], len(h.timer.pending))
	}
	if h.counter("campaign.deadline.expired") != 2 || h.counter("campaign.poisoned") != 0 {
		t.Errorf("deadline.expired %d poisoned %d, want 2 and 0", h.counter("campaign.deadline.expired"), h.counter("campaign.poisoned"))
	}
}

// TestRetryAfterJitterDeterministic pins the 429 jitter function:
// stable per tenant, load-proportional, and actually spread across
// tenant names.
func TestRetryAfterJitterDeterministic(t *testing.T) {
	if a, b := retryAfterFor("alice", 0, 4), retryAfterFor("alice", 0, 4); a != b {
		t.Fatalf("jitter not deterministic: %d vs %d", a, b)
	}
	if base, loaded := retryAfterFor("alice", 0, 4), retryAfterFor("alice", 64, 4); loaded-base != 4 {
		t.Errorf("load component: base %d loaded %d, want +4", base, loaded)
	}
	distinct := make(map[int]bool)
	for i := 0; i < 8; i++ {
		distinct[retryAfterFor(fmt.Sprintf("tenant-%d", i), 0, 4)] = true
	}
	if len(distinct) < 3 {
		t.Errorf("8 tenants landed on %d distinct Retry-After values, want ≥3", len(distinct))
	}
}

// TestPauseResumeClose drives the lifecycle through real workers: a
// paused scheduler dispatches nothing, Resume releases the queue, and
// Close leaves queued points undelivered and rejects what comes after.
func TestPauseResumeClose(t *testing.T) {
	h := newSched(Config{Workers: 2})
	h.Start()
	h.Pause()
	a := echo("a")
	mustAdmit(t, h.Scheduler, a, "t")
	h.Resume()
	<-a.done
	if err := h.Drain(context.Background()); err != nil || h.Accepting() {
		t.Fatalf("Drain: %v, accepting %v", err, h.Accepting())
	}

	h = newSched(Config{Workers: 2})
	h.Start()
	h.Pause()
	b := echo("b")
	mustAdmit(t, h.Scheduler, b, "t")
	h.Close()
	if b.finished() || len(h.DispatchLog()) != 0 {
		t.Error("a paused scheduler dispatched work")
	}
	if _, err := h.Admit(echo("c"), "t", 1); !errors.Is(err, ErrDraining) || h.Readmit("t", 1) == nil {
		t.Errorf("Admit after Close: %v, want ErrDraining", err)
	}
	// A re-dispatch timer that fires after Close must not re-queue.
	h.mu.Lock()
	h.pendingRedispatch++
	h.mu.Unlock()
	h.requeue(&flight{key: "x", t: h.tenants["t"]})
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.queued != 1 || len(h.tenants["t"].q) != 1 || h.pendingRedispatch != 0 {
		t.Errorf("requeue after Close: %d queued, %d pending re-dispatches; want b alone and none",
			h.queued, h.pendingRedispatch)
	}
}

// countJob delivers into a counter, so that what Admit itself allocates
// can be measured.
type countJob struct {
	keys      []string
	delivered int
}

func (j *countJob) PointKey(i int) string              { return j.keys[i] }
func (j *countJob) ComputePoint(i int) ([]byte, error) { return nil, nil }
func (j *countJob) Deliver(int, []byte, error)         { j.delivered++ }

// TestCachedAdmitAllocatesNothing: admitting a job whose points are all
// in the LRU allocates nothing beyond what the job itself does — the
// scheduler seam holds a Job as a pointer in an interface, not a
// closure per point, and serve_warm's budget depends on it.
func TestCachedAdmitAllocatesNothing(t *testing.T) {
	h := newSched(Config{})
	j := &countJob{keys: []string{"a", "b", "c", "d"}}
	for _, k := range j.keys {
		h.cache.Put(k, []byte(k))
	}
	if _, err := h.Admit(j, "t", len(j.keys)); err != nil { // registers the tenant
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if q, err := h.Admit(j, "t", len(j.keys)); q != 0 || err != nil {
			t.Fatalf("cached Admit queued %d, %v", q, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a fully cached Admit allocated %.1f times, want 0", allocs)
	}
	if j.delivered != 4*202 {
		t.Errorf("%d deliveries, want %d", j.delivered, 4*202)
	}
}

// TestImportsStayNarrow keeps the scheduler a scheduler: its non-test
// files may not import the HTTP surface, the process environment, the
// campaign state or the simulator.
func TestImportsStayNarrow(t *testing.T) {
	banned := map[string]bool{
		"net/http": true, "os": true,
		"asyncio/internal/campaign": true, "asyncio/internal/experiments": true,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
	if files == 0 {
		t.Fatal("parsed no files")
	}
}

// TestRedispatchDelayCapped: base, 2×, 4×, 8×, then 8× forever.
func TestRedispatchDelayCapped(t *testing.T) {
	for strike, want := range []time.Duration{1, 1, 2, 4, 8, 8, 8} {
		if got := redispatchDelay(time.Millisecond, strike); got != want*time.Millisecond {
			t.Errorf("strike %d: backoff %v, want %v", strike, got, want*time.Millisecond)
		}
	}
}
