// Package dcf implements an 802.11-style Distributed Coordination Function
// baseline: per-packet CSMA/CA with binary exponential backoff. It is not
// one of the paper's plotted baselines, but the paper's introduction leans
// on Bianchi's analysis of exactly this scheme — collision probability grows
// with network size and the resulting capacity loss is significant even at
// ten links — to motivate the collision-free design of the DP protocol.
// This package makes that comparison runnable as an ablation.
package dcf

import (
	"fmt"

	"rtmac/internal/mac"
	"rtmac/internal/sim"
)

// The backoff window evolution of 802.11a.
const (
	// cwMin is the initial contention window.
	cwMin = 16
	// cwMax caps the window after repeated failures.
	cwMax = 1024
)

// Protocol is the DCF policy. Contention-window state persists across
// intervals, as a real station's would.
type Protocol struct {
	cw []int // current window per link
	// rng caches the backoff stream; fireFns/doneFns are per-link callbacks
	// built once against the stable interval context, so entering contention
	// and chaining retransmissions allocate nothing.
	rng     *sim.RNG
	ctx     *mac.Context
	fireFns []func() bool
	doneFns []func(delivered bool)
}

// New returns a DCF instance for n links.
func New(n int) (*Protocol, error) {
	if n < 1 {
		return nil, fmt.Errorf("dcf: need at least 1 link, got %d", n)
	}
	p := &Protocol{cw: make([]int, n)}
	for i := range p.cw {
		p.cw[i] = cwMin
	}
	return p, nil
}

// Name implements mac.Protocol.
func (p *Protocol) Name() string { return "dcf" }

// BeginInterval implements mac.Protocol: every backlogged link joins the
// slotted contention with a fresh uniform draw from its current window.
func (p *Protocol) BeginInterval(ctx *mac.Context) {
	if p.fireFns == nil {
		n := ctx.Links()
		p.rng = ctx.Eng.RNG("dcf")
		p.fireFns = make([]func() bool, n)
		p.doneFns = make([]func(delivered bool), n)
		for i := 0; i < n; i++ {
			link := i
			p.fireFns[link] = func() bool { return p.fire(p.ctx, link) }
			p.doneFns[link] = func(delivered bool) {
				if delivered {
					p.cw[link] = cwMin
				} else if p.cw[link]*2 <= cwMax {
					p.cw[link] *= 2
				}
				ctx := p.ctx
				if ctx.Pending(link) > 0 && ctx.FitsData() {
					p.enter(ctx, link)
				}
			}
		}
	}
	p.ctx = ctx
	for link := 0; link < ctx.Links(); link++ {
		if ctx.Pending(link) > 0 {
			p.enter(ctx, link)
		}
	}
	ctx.Contention().Settle()
}

// EndInterval implements mac.Protocol. Residual backoff counters are
// discarded with the interval's flushed packets (the network clears the
// coordinator); the exponential window state survives.
func (p *Protocol) EndInterval(*mac.Context) {}

// enter registers link with a fresh draw from [0, cw).
func (p *Protocol) enter(ctx *mac.Context, link int) {
	draw := p.rng.IntN(p.cw[link])
	ctx.Contention().Add(link, draw, mac.Contender{Fire: p.fireFns[link]})
}

// fire transmits one packet; the outcome drives the window (double on
// failure — a station cannot distinguish collision from channel loss, both
// are a missing ACK — reset on success), and the link re-enters contention
// while it remains backlogged.
func (p *Protocol) fire(ctx *mac.Context, link int) bool {
	return ctx.TransmitData(link, p.doneFns[link])
}

// Window returns link's current contention window, for tests and reports.
func (p *Protocol) Window(link int) int { return p.cw[link] }

var _ mac.Protocol = (*Protocol)(nil)
