// Package framecsma implements a frame-based CSMA baseline in the spirit of
// Lu, Li, Srikant & Ying, "Optimal distributed scheduling of real-time
// traffic with hard deadlines" (CDC 2016), which the paper contrasts with
// DB-DP in its introduction: schedules are generated distributedly once per
// frame (using a control phase at the frame start), and then executed
// open-loop. The scheme is feasibility-optimal under RELIABLE transmissions
// but sub-optimal over unreliable channels, because the within-frame
// schedule cannot adapt to packet losses — exactly the behaviour this
// implementation reproduces:
//
//   - a control phase of N mini-slots opens every frame (modelling [23]'s
//     control packets; its duration is pure overhead);
//   - transmission slots are then pre-allocated to links in debt order,
//     each link receiving ⌈pending/p⌉ slots (its expected retry need)
//     until the frame budget runs out;
//   - each link transmits only within its own allocation: if it finishes
//     early the leftover slots idle, and if it is unlucky it cannot borrow
//     slots that idle elsewhere. Both wastes are the price of open-loop
//     scheduling that the adaptive DB-DP and ELDF policies avoid.
package framecsma

import (
	"fmt"
	"math"

	"rtmac/internal/debt"
	"rtmac/internal/mac"
	"rtmac/internal/sim"
)

// Config parameterizes the baseline.
type Config struct {
	// ControlSlot is the duration of one control mini-slot; every frame
	// starts with one mini-slot per link (schedule agreement overhead).
	ControlSlot sim.Time
}

// DefaultConfig uses 20 µs control mini-slots (a conservative stand-in for
// [23]'s control packets).
func DefaultConfig() Config {
	return Config{ControlSlot: 20}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ControlSlot < 0 {
		return fmt.Errorf("framecsma: negative control slot %v", c.ControlSlot)
	}
	return nil
}

// Protocol is the frame-based CSMA policy.
type Protocol struct {
	cfg Config
	// f is the debt influence function that orders links when slots are
	// allocated: the paper's log function.
	f debt.InfluenceFunc
	// Per-interval scratch: remaining pre-allocated attempts per link and
	// the debt-ordered link sequence.
	alloc []int
	order []int
	// timer is the pending control-phase or idle-slot event, cancelled at
	// interval end so nothing leaks past the deadline.
	timer *sim.Timer
	// weights is the per-interval debt-weight scratch.
	weights []float64
	// ctx/serveFn/timerFn cache the interval context (stable across
	// intervals) and the continuation callbacks, keeping the frame execution
	// allocation-free.
	ctx     *mac.Context
	serveFn func(bool)
	timerFn func()
}

// New validates cfg and returns the protocol.
func New(cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Protocol{cfg: cfg, f: debt.PaperLog()}, nil
}

// Name implements mac.Protocol.
func (p *Protocol) Name() string { return "frame-csma" }

// BeginInterval implements mac.Protocol: run the control phase, pre-allocate
// the frame's transmission slots in debt order, then execute open-loop.
func (p *Protocol) BeginInterval(ctx *mac.Context) {
	n := ctx.Links()
	if p.serveFn == nil {
		p.serveFn = func(bool) { p.serveNext(p.ctx) }
		p.timerFn = func() {
			p.timer = nil
			p.serveNext(p.ctx)
		}
	}
	p.ctx = ctx
	if cap(p.alloc) < n {
		p.alloc = make([]int, n)
		p.order = make([]int, n)
		p.weights = make([]float64, n)
	}
	p.alloc = p.alloc[:n]
	p.order = p.order[:n]
	p.weights = p.weights[:n]

	// Debt ordering, as the distributed contention of [23] would produce.
	// Decreasing weight, ties broken by link ID: a strict total order, so
	// this allocation-free insertion sort reproduces sort.SliceStable's
	// result exactly.
	weights := p.weights
	for link := 0; link < n; link++ {
		p.order[link] = link
		weights[link] = ctx.Ledger.Weight(link, p.f, ctx.Med.SuccessProb(link))
	}
	order := p.order
	for i := 1; i < n; i++ {
		li := order[i]
		wi := weights[li]
		j := i - 1
		for j >= 0 {
			lj := order[j]
			wj := weights[lj]
			if wj > wi || (wj == wi && lj < li) {
				break
			}
			order[j+1] = lj
			j--
		}
		order[j+1] = li
	}

	// Control phase consumes N mini-slots off the top of the frame.
	controlTime := sim.Time(n) * p.cfg.ControlSlot
	budget := int((ctx.Remaining() - controlTime) / ctx.Profile.DataAirtime)
	if budget < 0 {
		budget = 0
	}
	// Open-loop slot allocation: expected retry need, in debt order.
	for _, link := range p.order {
		p.alloc[link] = 0
		if budget == 0 || ctx.Pending(link) == 0 {
			continue
		}
		need := int(math.Ceil(float64(ctx.Pending(link)) / ctx.Med.SuccessProb(link)))
		if need > budget {
			need = budget
		}
		p.alloc[link] = need
		budget -= need
	}

	// Execute after the control phase (unless the frame is all control).
	if controlTime >= ctx.Remaining() {
		return
	}
	p.timer = ctx.Eng.After(controlTime, p.timerFn)
}

// serveNext walks the allocation open-loop: the next link in debt order with
// remaining allocated slots uses one. A slot whose owner has no pending
// packet burns as idle airtime (the non-adaptivity cost); it is not
// reassigned.
func (p *Protocol) serveNext(ctx *mac.Context) {
	for _, link := range p.order {
		if p.alloc[link] == 0 {
			continue
		}
		p.alloc[link]--
		if ctx.Pending(link) > 0 {
			if !ctx.TransmitData(link, p.serveFn) {
				return // nothing fits before the deadline anymore
			}
			return
		}
		// Idle slot: its owner finished early. Time passes, nobody talks.
		if ctx.Remaining() < ctx.Profile.DataAirtime {
			return
		}
		p.timer = ctx.Eng.After(ctx.Profile.DataAirtime, p.timerFn)
		return
	}
}

// EndInterval implements mac.Protocol.
func (p *Protocol) EndInterval(ctx *mac.Context) {
	if p.timer != nil {
		ctx.Eng.Cancel(p.timer)
		p.timer = nil
	}
	for i := range p.alloc {
		p.alloc[i] = 0
	}
}

var _ mac.Protocol = (*Protocol)(nil)
