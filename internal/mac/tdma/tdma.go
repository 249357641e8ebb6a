// Package tdma implements a static time-division baseline: every interval's
// transmission slots are split in fixed round-robin order among the color
// classes of a greedy coloring of the conflict graph, irrespective of debts,
// arrivals, or outcomes. On the paper's complete graph every class is a
// single link, so the frame is split among links. It is the zero-adaptivity
// reference point: collision-free like the DP protocol, but with none of
// its debt responsiveness — under asymmetric channels or bursty arrivals
// the fixed allocation wastes exactly the capacity the debt-driven policies
// recover.
package tdma

import (
	"fmt"
	"slices"

	"rtmac/internal/mac"
	"rtmac/internal/sim"
)

// Protocol is the static TDMA policy. The zero value is invalid; use New.
type Protocol struct {
	// rotate shifts the round-robin start each interval so leftover slots
	// (when slots % classes != 0) spread fairly.
	rotate bool
	// Per-interval scratch: alloc[c] is class c's remaining slots, order
	// the classes in this interval's service order.
	alloc []int
	order []int
	timer *sim.Timer
	k     int64
	// The frame is divided among the color classes of a greedy coloring:
	// all links of the active class transmit simultaneously (they are
	// pairwise non-conflicting by construction), the TDMA analogue of
	// spatial reuse. Class c holds links members[start[c]:start[c+1]] in
	// ascending order; the coloring is computed once per network.
	start       []int
	members     []int
	outstanding int
	// ctx/groupDoneFn/timerFn cache the interval context (stable across
	// intervals) and the two continuation callbacks, keeping the serving
	// chain allocation-free.
	ctx         *mac.Context
	groupDoneFn func(bool)
	timerFn     func()
}

// New returns a TDMA instance. rotate spreads remainder slots across
// classes over successive intervals.
func New(rotate bool) *Protocol {
	return &Protocol{rotate: rotate}
}

// Name implements mac.Protocol.
func (p *Protocol) Name() string { return "tdma" }

// BeginInterval implements mac.Protocol: divide the interval's slots evenly
// among the color classes (remainders rotate) and serve each class's share
// in order.
func (p *Protocol) BeginInterval(ctx *mac.Context) {
	if p.groupDoneFn == nil {
		p.timerFn = func() {
			p.timer = nil
			p.serveNextGroup(p.ctx)
		}
		p.groupDoneFn = func(bool) {
			p.outstanding--
			if p.outstanding == 0 {
				p.serveNextGroup(p.ctx)
			}
		}
	}
	p.ctx = ctx
	if p.start == nil {
		p.colorize(ctx)
	}
	m := len(p.start) - 1
	slots := ctx.Profile.SlotsPerInterval()
	base := slots / m
	extra := slots % m
	first := 0
	if p.rotate {
		first = int(p.k % int64(m))
	}
	for i := 0; i < m; i++ {
		class := (first + i) % m
		p.order[i] = class
		p.alloc[class] = base
		if i < extra {
			p.alloc[class]++
		}
	}
	p.k++
	p.outstanding = 0
	p.serveNextGroup(ctx)
}

// colorize computes a greedy coloring by link index: each link takes the
// smallest color unused by its already-colored conflicting neighbors. The
// graph is fixed for a network's lifetime, so this runs once.
func (p *Protocol) colorize(ctx *mac.Context) {
	n := ctx.Links()
	g := ctx.Med.Graph()
	colors := make([]int, n)
	used := make([]bool, n)
	m := 0
	for link := 0; link < n; link++ {
		for j := 0; j < link; j++ {
			if g.Conflicts(link, j) {
				used[colors[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[link] = c
		m = max(m, c+1)
		clear(used[:m])
	}
	// Bucket the links by color; next[c] is where class c's next link goes.
	p.start = make([]int, m+1)
	for _, c := range colors {
		p.start[c+1]++
	}
	for c := 1; c <= m; c++ {
		p.start[c] += p.start[c-1]
	}
	next := slices.Clone(p.start[:m])
	p.members = make([]int, n)
	for link, c := range colors {
		p.members[next[c]] = link
		next[c]++
	}
	p.alloc = make([]int, m)
	p.order = make([]int, m)
}

// serveNextGroup consumes one class slot: every link of the active class
// with pending packets starts a data exchange, and the group's completions
// (all at the same instant — equal airtimes started together) advance to
// the next slot. A slot whose class has nothing to send idles away, exactly
// as in a hardware TDMA frame.
func (p *Protocol) serveNextGroup(ctx *mac.Context) {
	for _, class := range p.order {
		if p.alloc[class] == 0 {
			continue
		}
		p.alloc[class]--
		if !ctx.FitsData() {
			return
		}
		started := 0
		for _, link := range p.members[p.start[class]:p.start[class+1]] {
			if ctx.Pending(link) > 0 && ctx.TransmitData(link, p.groupDoneFn) {
				started++
			}
		}
		if started > 0 {
			p.outstanding = started
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
	// Orphan any group completions still landing at the interval boundary:
	// with outstanding at zero and the allocation cleared, a late
	// groupDoneFn decrements past zero and serveNextGroup finds nothing.
	p.outstanding = 0
	clear(p.alloc)
}

// String aids debugging.
func (p *Protocol) String() string {
	return fmt.Sprintf("tdma(rotate=%v)", p.rotate)
}

var _ mac.Protocol = (*Protocol)(nil)
