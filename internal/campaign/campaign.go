package campaign

import (
	"context"
	"sync"
)

// Event is one progress record of a campaign, streamed as NDJSON from
// the events endpoint.
// A stream always ends with exactly one terminal record (Final true,
// State complete/failed/aborted) — its absence means the stream was cut
// off mid-campaign, not that the campaign ended.
type Event struct {
	Seq   int    `json:"seq"`
	Point int    `json:"point"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Err   string `json:"err,omitempty"`
	Final bool   `json:"final,omitempty"`
	State string `json:"state,omitempty"`
}

// Campaign is one admitted scenario: a canonical spec plus the
// per-point results as they land. It is the scheduler's sched.Job —
// PointKey, ComputePoint and Deliver are all the scheduler ever calls —
// and knows nothing of the scheduler in return.
type Campaign struct {
	id      string
	spec    *Spec
	compute func(*Spec, int) ([]byte, error)

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on every event append
	results  [][]byte   // index-ordered point payloads
	done     int
	firstErr error
	events   []Event
	finished chan struct{} // closed when done == len(results)
	aborted  chan struct{} // closed when the server shut down first
}

func newCampaign(id string, spec *Spec, total int, compute func(*Spec, int) ([]byte, error)) *Campaign {
	c := &Campaign{id: id, spec: spec, compute: compute, results: make([][]byte, total),
		finished: make(chan struct{}), aborted: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// PointKey is the cache key of point i.
func (c *Campaign) PointKey(i int) string { return c.spec.PointKey(i) }

// ComputePoint simulates point i.
func (c *Campaign) ComputePoint(i int) ([]byte, error) { return c.compute(c.spec, i) }

// Deliver records point i's result. Safe to call from any worker; the
// last point closes finished.
func (c *Campaign) Deliver(i int, val []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[i] = val
	c.done++
	if err != nil && c.firstErr == nil {
		c.firstErr = err
	}
	ev := Event{Seq: len(c.events), Point: i, Done: c.done, Total: len(c.results)}
	if err != nil {
		ev.Err = err.Error()
	}
	c.events = append(c.events, ev)
	c.cond.Broadcast()
	if c.done == len(c.results) {
		close(c.finished)
	}
}

func (c *Campaign) abortedNow() bool {
	select {
	case <-c.aborted:
		return true
	default:
		return false
	}
}

// abort marks an unfinished campaign as cut off by server shutdown:
// result waiters get a typed 503 and event streams emit an "aborted"
// terminal record. A finished campaign is left alone.
func (c *Campaign) abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == len(c.results) || c.abortedNow() {
		return
	}
	close(c.aborted)
	c.cond.Broadcast()
}

// stateLocked names where the campaign stands: complete or failed once
// every point is in, aborted if the server shut down first, else
// running.
func (c *Campaign) stateLocked() string {
	switch {
	case c.done < len(c.results) && c.abortedNow():
		return "aborted"
	case c.done < len(c.results):
		return "running"
	case c.firstErr != nil:
		return "failed"
	}
	return "complete"
}

// stream feeds the campaign's events from the beginning to emit, in
// batches as they land, and ends with exactly one terminal record —
// unless ctx is done first, in which case it just returns: a stream
// without a terminal record was cut off.
func (c *Campaign) stream(ctx context.Context, emit func(batch []Event)) {
	// A cond.Wait cannot watch a context; this turns the client going
	// away into a broadcast so the loop below re-checks. It broadcasts
	// under c.mu: without the lock the wake-up can fall between the
	// loop's ctx check and its Wait, and be lost.
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	for next := 0; ; {
		c.mu.Lock()
		for next >= len(c.events) && c.done < len(c.results) && !c.abortedNow() && ctx.Err() == nil {
			c.cond.Wait()
		}
		batch := c.events[next:]
		next = len(c.events)
		state := c.stateLocked()
		if state != "running" {
			batch = append(batch[:len(batch):len(batch)],
				Event{Seq: next, Point: -1, Done: c.done, Total: len(c.results), Final: true, State: state})
		}
		c.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		emit(batch)
		if state != "running" {
			return
		}
	}
}

// registry maps campaign ids to campaigns. Its lock is the outermost of
// the service's three (registry, then scheduler, then campaign): it is
// held across admission so that a campaign is registered if and only if
// the scheduler took it.
type registry struct {
	compute func(*Spec, int) ([]byte, error) // what new campaigns compute points with

	mu        sync.Mutex
	campaigns map[string]*Campaign
}

func (r *registry) get(id string) *Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.campaigns[id]
}

// abortAll aborts every unfinished campaign.
func (r *registry) abortAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.campaigns {
		c.abort()
	}
}
