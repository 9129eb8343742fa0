// Package flow implements a processor-sharing bandwidth server on the
// virtual clock.
//
// A Server models a shared resource — a parallel file system's aggregate
// bandwidth, a node's DRAM copy bandwidth, a GPU link — that concurrent
// transfers divide among themselves. The aggregate capacity is a function
// of the number of active flows, which lets system models express
// scaling effects (more clients extract more bandwidth from GPFS/Lustre
// until the backend saturates). Individual flows may additionally be
// rate-capped (e.g. by a node's injection bandwidth); spare capacity is
// redistributed to uncapped flows by water-filling.
//
// The simulation is an exact processor-sharing discrete-event model:
// per-flow rates are piecewise constant between arrivals and departures,
// and the completion timer is recomputed on every state change.
package flow

import (
	"math"
	"time"

	"asyncio/internal/vclock"
)

// Capacity returns the aggregate service rate in bytes/second available
// when n flows are active. It must be positive for n >= 1.
type Capacity func(n int) float64

// ConstCapacity returns a Capacity with a fixed aggregate rate.
func ConstCapacity(bytesPerSec float64) Capacity {
	return func(int) float64 { return bytesPerSec }
}

// LinearCapacity scales per-flow bandwidth linearly up to an aggregate
// ceiling: min(n*perFlow, ceiling).
func LinearCapacity(perFlow, ceiling float64) Capacity {
	return func(n int) float64 {
		return math.Min(float64(n)*perFlow, ceiling)
	}
}

// completion tolerance, in bytes. Flows whose remaining volume falls
// below this are considered finished; it absorbs float rounding across
// rate recomputations.
const epsBytes = 1e-3

// Server is a processor-sharing bandwidth server. Construct with
// NewServer.
type Server struct {
	clk   *vclock.Clock
	capFn Capacity
	// flows is kept in arrival order. Iteration order is observable —
	// completion fires per-flow events, and water-filling accumulates
	// floating-point remainders — so it must not vary between runs the
	// way map iteration does.
	flows []*flowState
	timer *vclock.Timer
	last  time.Duration // virtual time of the last rate recomputation
	// pending marks a zero-delay rebalance already scheduled for the
	// current instant. Arrivals are batched through it: when thousands
	// of ranks start transfers at the same virtual time (a barrier-
	// synced I/O phase), rates are recomputed once for the whole batch
	// instead of once per arrival — the difference between O(n) and
	// O(n²) work per phase.
	pending bool

	// free holds finished flowStates for reuse and uncapped is
	// allocate's work list, so a transfer in steady state allocates
	// nothing here. rebalanceFn and timerFn are the bound callbacks, made
	// once instead of once per AfterFunc.
	free        []*flowState
	uncapped    []*flowState
	rebalanceFn func(time.Duration)
	timerFn     func(time.Duration)
}

type flowState struct {
	remaining float64 // bytes left to serve
	maxRate   float64 // per-flow cap in bytes/sec; 0 means uncapped
	rate      float64 // current allocated rate
	done      vclock.Event
}

// NewServer returns a Server on clk with the given capacity function.
func NewServer(clk *vclock.Clock, capFn Capacity) *Server {
	s := &Server{clk: clk, capFn: capFn}
	s.rebalanceFn, s.timerFn = s.onRebalance, s.onTimer
	return s
}

// Active returns the number of in-flight flows.
func (s *Server) Active() int { return len(s.flows) }

// Transfer serves a flow of the given size, blocking p in virtual time
// until it completes. It returns the virtual time the transfer took.
// Transfers of non-positive size complete immediately.
func (s *Server) Transfer(p *vclock.Proc, bytes int64) time.Duration {
	return s.TransferLimited(p, bytes, 0)
}

// TransferLimited is Transfer with a per-flow rate cap in bytes/second.
// A cap of zero means uncapped.
func (s *Server) TransferLimited(p *vclock.Proc, bytes int64, maxRate float64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	start := p.Now()
	var f *flowState
	if n := len(s.free); n > 0 {
		f, s.free = s.free[n-1], s.free[:n-1]
	} else {
		f = new(flowState)
	}
	f.remaining, f.maxRate, f.rate = float64(bytes), maxRate, 0
	f.done.Init(p.Clock(), "")
	s.advance(start)
	s.flows = append(s.flows, f)
	if !s.pending {
		s.pending = true
		s.clk.AfterFunc(0, s.rebalanceFn)
	}
	f.done.Wait(p)
	// Only a waiter that returned normally recycles its flow: the server
	// fired it, so it has left s.flows. A killed waiter unwinds past this
	// while its flow may still be in service.
	s.free = append(s.free, f)
	return p.Now() - start
}

// onRebalance runs once per instant with batched arrivals and
// recomputes the allocation.
func (s *Server) onRebalance(now time.Duration) {
	s.pending = false
	s.advance(now)
	s.reschedule(now)
}

// advance drains served bytes for the interval [s.last, now] at the
// rates allocated at s.last, then moves the accounting point to now.
func (s *Server) advance(now time.Duration) {
	if now <= s.last {
		return
	}
	dt := (now - s.last).Seconds()
	for _, f := range s.flows {
		f.remaining -= f.rate * dt
	}
	s.last = now
}

// reschedule fires finished flows, reallocates rates, and arms the
// completion timer for the next departure.
func (s *Server) reschedule(now time.Duration) {
	live := s.flows[:0]
	for _, f := range s.flows {
		if f.remaining <= epsBytes {
			f.done.Fire()
		} else {
			live = append(live, f)
		}
	}
	for i := len(live); i < len(s.flows); i++ {
		s.flows[i] = nil
	}
	s.flows = live
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if len(s.flows) == 0 {
		return
	}
	s.allocate()
	next := math.Inf(1)
	for _, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		// Every flow is stalled at rate zero; nothing to schedule. This
		// only happens with a zero capacity function, which is a model
		// configuration error surfaced as a vclock deadlock.
		return
	}
	d := time.Duration(next * float64(time.Second))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	s.timer = s.clk.AfterFunc(d, s.timerFn)
}

func (s *Server) onTimer(now time.Duration) {
	s.advance(now)
	// Absorb sub-epsilon residue from Duration truncation: the earliest
	// flow may be a hair short of done. Treat anything within one
	// nanosecond of service as complete.
	minResidue := math.Inf(1)
	for _, f := range s.flows {
		if f.rate > 0 {
			if r := f.remaining / f.rate; r < minResidue {
				minResidue = r
			}
		}
	}
	if minResidue > 0 && minResidue*float64(time.Second) < 2 {
		for _, f := range s.flows {
			if f.rate > 0 && f.remaining/f.rate <= minResidue {
				f.remaining = 0
			}
		}
	}
	s.reschedule(now)
}

// allocate distributes capFn(n) across flows by water-filling
// around per-flow caps.
func (s *Server) allocate() {
	n := len(s.flows)
	capacity := s.capFn(n)
	uncapped := s.uncapped[:0]
	for _, f := range s.flows {
		f.rate = 0
		uncapped = append(uncapped, f)
	}
	s.uncapped = uncapped
	remaining := capacity
	for len(uncapped) > 0 {
		share := remaining / float64(len(uncapped))
		progressed := false
		next := uncapped[:0]
		for _, f := range uncapped {
			if f.maxRate > 0 && f.maxRate <= share {
				f.rate = f.maxRate
				remaining -= f.maxRate
				progressed = true
			} else {
				next = append(next, f)
			}
		}
		uncapped = next
		if !progressed {
			for _, f := range uncapped {
				f.rate = share
			}
			break
		}
	}
}
