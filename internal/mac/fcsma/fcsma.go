// Package fcsma implements the discretized FCSMA baseline the paper compares
// against (Li & Eryilmaz, "Optimal distributed scheduling under time-varying
// conditions: a fast-CSMA algorithm with applications", as used in §VI).
//
// FCSMA is debt-driven random-access CSMA: before every transmission
// opportunity each backlogged link draws a random backoff, and the link with
// the smallest draw captures the channel for one packet. In the discretized
// version the range of delivery debt is divided into a finite number of
// sections, each mapped to a predetermined contention-window size — higher
// debt, smaller window. Three loss mechanisms follow, and all three are
// reproduced here because the paper attributes FCSMA's deficiency gap to
// them:
//
//   - backoff overhead: every contention round idles min-draw slots;
//   - collisions: equal draws transmit simultaneously and are destroyed;
//   - debt saturation: above the top section the window no longer shrinks,
//     so FCSMA stops responding to further debt growth (the cause of the
//     group-1 starvation in the paper's Figs. 7–8).
package fcsma

import (
	"fmt"

	"rtmac/internal/mac"
	"rtmac/internal/medium"
	"rtmac/internal/sim"
)

// Config sets the discretization of debt into contention-window sizes.
type Config struct {
	// CWMin is the smallest (most aggressive) contention window, in slots.
	CWMin int
	// CWMax is the largest window, used at zero debt.
	CWMax int
	// Levels is the number of debt sections; section l uses window
	// max(CWMin, CWMax >> l), and every debt at or above Quantum·(Levels-1)
	// falls in the top section (the saturation behaviour).
	Levels int
	// Quantum is the debt width of one section.
	Quantum float64
}

// DefaultConfig mirrors the discretization spirit of the reference
// implementation: three debt sections mapping windows 128 → 64 → 32 slots,
// saturating at debt 6. The sizes are calibrated so that a fully backlogged
// 20-link network keeps a unique-minimum probability of ≈ 0.72–0.92 (see the
// per-window analysis in the package tests): aggressive enough to respond to
// debt, yet not so small that symmetric saturation collapses into a
// permanent collision spiral — matching the qualitative behaviour of the
// reference FCSMA, which loses ≈ 30 % of capacity to backoff overhead and
// collisions rather than all of it.
func DefaultConfig() Config {
	return Config{CWMin: 32, CWMax: 128, Levels: 3, Quantum: 3}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.CWMin < 1:
		return fmt.Errorf("fcsma: CWMin %d must be at least 1", c.CWMin)
	case c.CWMax < c.CWMin:
		return fmt.Errorf("fcsma: CWMax %d below CWMin %d", c.CWMax, c.CWMin)
	case c.Levels < 1:
		return fmt.Errorf("fcsma: need at least 1 level, got %d", c.Levels)
	case c.Quantum <= 0:
		return fmt.Errorf("fcsma: quantum %v must be positive", c.Quantum)
	}
	return nil
}

// Window returns the contention-window size for a given positive debt.
func (c Config) Window(positiveDebt float64) int {
	level := int(positiveDebt / c.Quantum)
	if level >= c.Levels {
		level = c.Levels - 1
	}
	w := c.CWMax >> uint(level)
	if w < c.CWMin {
		w = c.CWMin
	}
	return w
}

// Protocol is the discretized FCSMA policy.
type Protocol struct {
	cfg        Config
	subscribed bool
	ctx        *mac.Context // non-nil only while an interval is running
	roundTimer *sim.Timer
	rounds     int64
	// rng caches the protocol's backoff stream; winners/fireFn are the
	// per-round scratch and the cached timer callback (at most one round is
	// pending at a time — roundTimer guards — so one winners slice suffices).
	rng     *sim.RNG
	winners []int
	fireFn  func()
	// window[link] is link's contention window for the running interval and
	// backlog the links still holding packets, in link order. The ledger
	// moves only between intervals, so BeginInterval sets both; packets
	// never arrive mid-interval, so each round only drops drained links.
	window  []int
	backlog []int
}

// New validates cfg and returns the protocol.
func New(cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Protocol{cfg: cfg}, nil
}

// Name implements mac.Protocol.
func (p *Protocol) Name() string { return "fcsma" }

// Rounds returns the number of contention rounds started, for diagnostics.
func (p *Protocol) Rounds() int64 { return p.rounds }

// BeginInterval implements mac.Protocol.
func (p *Protocol) BeginInterval(ctx *mac.Context) {
	n := ctx.Links()
	if !p.subscribed {
		// The network's contention coordinator subscribed at construction,
		// so FCSMA is the last listener and may transmit from LinksIdle.
		ctx.Med.SubscribeLinks(p)
		p.subscribed = true
		p.rng = ctx.Eng.RNG("fcsma")
		p.fireFn = func() {
			p.roundTimer = nil
			p.fireRound()
		}
		// The per-link scratch shares one allocation; a round has at most
		// n winners.
		buf := make([]int, 3*n)
		p.window, p.backlog, p.winners = buf[:n:n], buf[n:n:2*n], buf[2*n:2*n]
	}
	p.ctx = ctx
	p.backlog = p.backlog[:0]
	for link := 0; link < n; link++ {
		if ctx.Pending(link) > 0 {
			p.window[link] = p.cfg.Window(ctx.Ledger.PositiveDebt(link))
			p.backlog = append(p.backlog, link)
		}
	}
	p.startRound()
}

// EndInterval implements mac.Protocol.
func (p *Protocol) EndInterval(ctx *mac.Context) {
	if p.roundTimer != nil {
		ctx.Eng.Cancel(p.roundTimer)
		p.roundTimer = nil
	}
	p.ctx = nil
}

// LinksBusy implements medium.LinkListener.
func (p *Protocol) LinksBusy([]uint64, sim.Time) {}

// LinksIdle implements medium.LinkListener: every release of the whole
// channel opens the next transmission opportunity, so all backlogged links
// re-contend. A channel-wide release always drains the finishing link's own
// neighborhood, so each one reaches here; a neighborhood that idles while
// the channel is still occupied elsewhere starts no round.
func (p *Protocol) LinksIdle([]uint64, sim.Time) {
	if p.ctx != nil && !p.ctx.Med.Busy() {
		p.startRound()
	}
}

// startRound draws a backoff for every backlogged link and schedules the
// minimum-draw links to transmit. Ties transmit simultaneously and collide.
// Links that drained since the last round leave the backlog here, so the
// draws are the ones a scan over every link with pending packets makes, in
// the same link order.
func (p *Protocol) startRound() {
	ctx := p.ctx
	if p.roundTimer != nil || !ctx.FitsData() {
		return
	}
	rng := p.rng
	minDraw := -1
	p.winners = p.winners[:0]
	kept := p.backlog[:0]
	for _, link := range p.backlog {
		if ctx.Pending(link) == 0 {
			continue
		}
		kept = append(kept, link)
		draw := rng.IntN(p.window[link])
		// FCSMA contends outside the shared coordinator, so its rounds reach
		// the slot probes (the journey tracer) as Round records through the
		// context; a no-op while none is attached.
		ctx.NoteRound(link, draw)
		switch {
		case minDraw == -1 || draw < minDraw:
			minDraw = draw
			p.winners = p.winners[:0]
			p.winners = append(p.winners, link)
		case draw == minDraw:
			p.winners = append(p.winners, link)
		}
	}
	p.backlog = kept
	if minDraw == -1 {
		return // nothing backlogged
	}
	p.rounds++
	if minDraw == 0 {
		// A zero-slot backoff fires at this very instant, and nothing else
		// can be pending now (rounds start only once the channel fully
		// idles), so transmit directly instead of bouncing off the heap.
		p.fireRound()
		return
	}
	p.roundTimer = ctx.Eng.After(sim.Time(minDraw)*ctx.Profile.Slot, p.fireFn)
}

// fireRound transmits the round's minimum-draw links. Ties transmit
// simultaneously and collide on the medium.
func (p *Protocol) fireRound() {
	for _, link := range p.winners {
		// One packet per capture; the channel's release after it triggers
		// the next round. A link whose exchange no longer fits stays silent.
		p.ctx.TransmitData(link, nil)
	}
	// If nothing fit, the channel stays idle and no further rounds can fit
	// either: the interval effectively ends here.
}

// Interface compliance.
var (
	_ mac.Protocol        = (*Protocol)(nil)
	_ medium.LinkListener = (*Protocol)(nil)
)
