package sched

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Worker supervision: a panicking point computation must never take the
// daemon down, never stall other tenants, and never retry forever. run
// converts a panic into a typed *PanicError; finish re-dispatches the
// point with capped exponential backoff, and after PoisonStrikes
// consecutive panics the key is poison-quarantined — every later
// request for it gets the same stable *PoisonedError instead of another
// doomed retry.

// ErrSupervised is wrapped by every supervision verdict (panic, poison,
// deadline), so callers can errors.Is against one sentinel.
var ErrSupervised = errors.New("campaign: point supervision error")

// PanicError reports that computing a point panicked. It wraps
// ErrSupervised.
type PanicError struct {
	Key   string // Job.PointKey of the panicking point
	Value any    // the recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("campaign: computing point %s panicked: %v", e.Key, e.Value)
}

func (e *PanicError) Unwrap() error { return ErrSupervised }

// PoisonedError is the stable rejection for a point that panicked
// PoisonStrikes times: the service stops retrying and answers every
// request for the key with this error. It wraps ErrSupervised and the
// final panic.
type PoisonedError struct {
	Key     string
	Strikes int
	Cause   error // the last *PanicError
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("campaign: point %s poisoned after %d panics: %v", e.Key, e.Strikes, e.Cause)
}

func (e *PoisonedError) Unwrap() error { return ErrSupervised }

// DeadlineError reports that a point's request deadline expired before
// a worker could (re)compute it. It wraps ErrSupervised.
type DeadlineError struct {
	Key string
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("campaign: point %s exceeded its request deadline", e.Key)
}

func (e *DeadlineError) Unwrap() error { return ErrSupervised }

// nextLocked pops the next flight fairly — round-robin across tenants
// in ring order, FIFO within a tenant — records the decision and marks
// it running.
func (s *Scheduler) nextLocked() (work, bool) {
	for j := range s.ring {
		t := s.ring[(s.next+j)%len(s.ring)]
		if len(t.q) == 0 {
			continue
		}
		f := t.q[0]
		t.q = t.q[1:]
		s.next = (s.next + j + 1) % len(s.ring)
		s.queued--
		s.queueDepth.Set(float64(s.queued))
		s.log = append(s.log, Dispatch{Tenant: t.name, Pending: len(t.q), Queued: s.queued})
		s.running++
		s.inflight.Set(float64(s.running))
		return work{f, f.subs[0], f.deadline}, true
	}
	return work{}, false
}

// worker runs flights until Close.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		w, ok := work{}, false
		if !s.paused {
			w, ok = s.nextLocked()
		}
		if !ok {
			s.cond.Wait()
			continue
		}
		s.mu.Unlock()
		val, err := s.run(w)
		s.finish(w, val, err)
		s.mu.Lock()
	}
}

// run executes one dispatched flight with no lock held: an expired
// deadline gets a typed error instead of a compute, and a panic
// anywhere in the compute path surfaces as a typed *PanicError instead
// of killing the worker goroutine.
func (s *Scheduler) run(w work) (val []byte, err error) {
	if !w.deadline.IsZero() && s.now().After(w.deadline) {
		s.deadlineExpired.Add(1)
		return nil, &DeadlineError{Key: w.key}
	}
	defer func() {
		if v := recover(); v != nil {
			val, err = nil, &PanicError{Key: w.key, Value: v}
		}
	}()
	return w.sub.job.ComputePoint(w.sub.point)
}

// finish retires a flight with what run produced. A value is cached and
// written through; a panic is re-dispatched with capped backoff, or
// poison-quarantined after PoisonStrikes; then the flight lands and
// every subscriber is delivered the same bytes or the same error.
func (s *Scheduler) finish(w work, val []byte, err error) {
	if err == nil {
		// Before the flight comes down, so an admission always finds the
		// point in one or the other.
		s.cache.Put(w.key, val)
		if s.cfg.WriteThrough != nil {
			s.cfg.WriteThrough(w.key, val)
		}
	}
	s.mu.Lock()
	s.running--
	s.inflight.Set(float64(s.running))
	var pe *PanicError
	if err == nil {
		delete(s.strikes, w.key)
	} else if errors.As(err, &pe) {
		s.panics.Add(1)
		s.strikes[w.key]++
		strike := s.strikes[w.key]
		backoff := redispatchDelay(s.cfg.RedispatchBackoff, strike)
		switch {
		case strike >= s.cfg.PoisonStrikes:
			// Strikes exhausted: quarantine the key so no one ever
			// retries it again, and fail with a stable typed error.
			err = &PoisonedError{Key: w.key, Strikes: strike, Cause: pe}
			s.poisoned[w.key] = err
			s.poisonedCtr.Add(1)
		case s.closed:
			// No retry after Close; the panic is the verdict.
		case !w.deadline.IsZero() && s.now().Add(backoff).After(w.deadline):
			// No room for another attempt before the deadline.
			s.deadlineExpired.Add(1)
			err = &DeadlineError{Key: w.key}
		default:
			// Keep the flight open and return it to its tenant's queue
			// after the backoff — the "restart the worker" move, with
			// the strike count standing in for supervisor state.
			s.pendingRedispatch++
			s.redispatched.Add(1)
			s.mu.Unlock()
			s.after(backoff, func() { s.requeue(w.flight) })
			return
		}
	}
	subs := w.subs
	delete(s.flights, w.key)
	s.served.Add(1)
	s.mu.Unlock()
	for _, sub := range subs {
		sub.job.Deliver(sub.point, val, err)
	}
}

// requeue returns a panicked flight to its tenant's queue once its
// backoff has elapsed.
func (s *Scheduler) requeue(f *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingRedispatch--
	if s.closed {
		// Whoever closed the scheduler answers the subscribers.
		return
	}
	f.t.q = append(f.t.q, f)
	s.queued++
	s.queueDepth.Set(float64(s.queued))
	s.cond.Broadcast()
}

// redispatchDelay is the capped exponential backoff before retrying a
// panicked point: base, 2×base, 4×base, ... capped at 8×base.
func redispatchDelay(base time.Duration, strike int) time.Duration {
	d := base
	for i := 1; i < strike && d < 8*base; i++ {
		d *= 2
	}
	return d
}

// retryAfterFor computes the 429 Retry-After: a load-proportional base
// plus a deterministic per-tenant jitter, so simultaneously rejected
// tenants do not all come back in the same second (a thundering-herd
// retry storm) while any one tenant always sees a stable value.
func retryAfterFor(tenant string, queued, workers int) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return 1 + queued/(workers*4) + int(h.Sum32()%5)
}

// BackpressureError is Admit's queue-full verdict: nothing was queued,
// come back in RetryAfter seconds.
type BackpressureError struct{ RetryAfter int }

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("queue full, retry after %ds", e.RetryAfter)
}
