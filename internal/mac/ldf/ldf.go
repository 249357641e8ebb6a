// Package ldf implements the centralized Extended Largest-Debt-First policy
// (Algorithm 1 of the paper). At the beginning of every interval the
// scheduler sorts all links by f(d_n⁺(k))·p_n in decreasing order and serves
// them in that priority order until the interval ends: the highest-priority
// link with pending packets transmits (and retransmits on loss) back-to-back
// with no contention overhead. With f(x) = x this is the classical LDF
// policy of Hou–Borkar–Kumar, the feasibility-optimal centralized comparator
// used throughout the paper's evaluation.
package ldf

import (
	"fmt"
	"sync"

	"rtmac/internal/debt"
	"rtmac/internal/mac"
)

// Scheduler is the centralized ELDF policy.
type Scheduler struct {
	f debt.InfluenceFunc
	// name is Name's result, built by its first call.
	name     string
	nameOnce sync.Once
	// order is the priority order of the current interval: order[0] is
	// served first. next is the length of its drained prefix: pending
	// packets never grow within an interval, so links before next can
	// never transmit again until the next interval.
	order []int
	next  int
	// weights is the per-interval f(d⁺)p scratch, reused across intervals.
	weights []float64
	// ctx/serveSetFn cache the interval context (stable across intervals) and
	// the chained-transmission callback, so serving allocates nothing.
	ctx        *mac.Context
	serveSetFn func(bool)
}

// New returns an ELDF scheduler with the given debt influence function.
func New(f debt.InfluenceFunc) *Scheduler {
	return &Scheduler{f: f}
}

// NewLDF returns the classical LDF policy, i.e. ELDF with f(x) = x.
func NewLDF() *Scheduler {
	return New(debt.Identity())
}

// Name implements mac.Protocol.
func (s *Scheduler) Name() string {
	s.nameOnce.Do(func() {
		s.name = "ldf"
		if s.f.Name() != "identity" {
			s.name = fmt.Sprintf("eldf[%s]", s.f.Name())
		}
	})
	return s.name
}

// Order returns the priority order chosen for the current interval (served
// first to last). It is only meaningful between BeginInterval and
// EndInterval.
func (s *Scheduler) Order() []int {
	out := make([]int, len(s.order))
	copy(out, s.order)
	return out
}

// BeginInterval implements mac.Protocol: sort by f(d⁺)p and start serving.
func (s *Scheduler) BeginInterval(ctx *mac.Context) {
	n := ctx.Links()
	if s.serveSetFn == nil {
		s.serveSetFn = func(bool) { s.serveSet(s.ctx) }
	}
	s.ctx = ctx
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.weights = make([]float64, n)
	}
	s.order = s.order[:n]
	s.weights = s.weights[:n]
	ctx.DebtOrder(s.f, s.order, s.weights)
	s.next = 0
	s.serveSet(ctx)
}

// serveSet walks the weight order and starts every link with pending packets
// whose closed neighborhood is idle — a greedy maximum-weight independent
// set, the natural centralized ELDF under spatial reuse. Starting a link
// marks its whole neighborhood busy (the closed row includes the link
// itself), so later links in the same pass are skipped exactly when they
// conflict with an earlier pick, and the walk stops once no link can start.
// On the complete graph that is right after the highest-weight pending link
// starts: the paper's back-to-back LDF service. Each completed exchange
// rescans: the finished link may re-serve its own queue or unblock a
// lower-weight neighbor. The walk starts past the drained prefix.
func (s *Scheduler) serveSet(ctx *mac.Context) {
	if !ctx.FitsData() {
		// Equal airtimes: nothing fits for any link (Remark 4: stay idle
		// until the interval ends).
		return
	}
	for s.next < len(s.order) && ctx.Pending(s.order[s.next]) == 0 {
		s.next++
	}
	for _, link := range s.order[s.next:] {
		if ctx.Pending(link) > 0 && !ctx.Med.BusyFor(link) {
			ctx.TransmitData(link, s.serveSetFn)
			if ctx.Med.AllBusy() {
				return
			}
		}
	}
}

// EndInterval implements mac.Protocol. ELDF keeps no cross-interval state
// beyond the ledger the network already maintains.
func (s *Scheduler) EndInterval(*mac.Context) {}

var _ mac.Protocol = (*Scheduler)(nil)
