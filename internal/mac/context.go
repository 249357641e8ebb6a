// Package mac provides the shared machinery every MAC protocol in this
// repository builds on: the per-interval execution context, the slotted
// contention coordinator that models freeze-on-busy backoff countdown with
// carrier sensing, and the network runner that drives a protocol through the
// interval structure of Section II-B.
package mac

import (
	"rtmac/internal/debt"
	"rtmac/internal/medium"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
)

// Context exposes one interval's state to a protocol. All packets arriving
// at the beginning of interval k share the deadline at the interval's end;
// whatever is still pending at End is flushed (Step 7 of Algorithm 2).
type Context struct {
	Eng     *sim.Engine
	Med     *medium.Medium
	Profile phy.Profile
	Ledger  *debt.Ledger
	cont    *Contention

	// K is the interval index, Start/End its boundaries.
	K          int64
	Start, End sim.Time

	arrivals []int
	pending  []int
	served   []int
	empty    []bool // link has a priority-claiming empty frame queued

	// dataCB/emptyCB are per-link medium callbacks built once at
	// construction; dataDone/emptyDone are the continuation slots they
	// forward to. The medium allows at most one in-flight transmission per
	// link (Start panics otherwise), so one slot per link suffices, and
	// Transmit* passes the prebuilt callback instead of allocating a closure
	// per call.
	dataCB    []func(medium.Outcome)
	emptyCB   []func(medium.Outcome)
	dataDone  []func(delivered bool)
	emptyDone []func()

	// inst is the network's instrumentation, which NoteRound and NoteSwap
	// report to.
	inst *instrumentation
}

func newContext(eng *sim.Engine, med *medium.Medium, profile phy.Profile, ledger *debt.Ledger) *Context {
	n := med.Links()
	// The three per-link counts share one allocation.
	counts := make([]int, 3*n)
	c := &Context{
		Eng:       eng,
		Med:       med,
		Profile:   profile,
		Ledger:    ledger,
		arrivals:  counts[:n:n],
		pending:   counts[n : 2*n : 2*n],
		served:    counts[2*n:],
		empty:     make([]bool, n),
		dataCB:    make([]func(medium.Outcome), n),
		emptyCB:   make([]func(medium.Outcome), n),
		dataDone:  make([]func(delivered bool), n),
		emptyDone: make([]func(), n),
	}
	for i := 0; i < n; i++ {
		link := i
		c.dataCB[link] = func(o medium.Outcome) {
			delivered := o == medium.Delivered
			if delivered {
				c.pending[link]--
				c.served[link]++
			}
			// Clear the slot before invoking: the continuation may chain
			// another TransmitData on this link, refilling it.
			done := c.dataDone[link]
			c.dataDone[link] = nil
			if done != nil {
				done(delivered)
			}
		}
		c.emptyCB[link] = func(medium.Outcome) {
			done := c.emptyDone[link]
			c.emptyDone[link] = nil
			if done != nil {
				done()
			}
		}
	}
	return c
}

func (c *Context) beginInterval(k int64, start, end sim.Time, arrivals []int) {
	c.K = k
	c.Start, c.End = start, end
	copy(c.arrivals, arrivals)
	copy(c.pending, arrivals)
	for n := range c.served {
		c.served[n] = 0
		c.empty[n] = false
	}
}

// Links returns N.
func (c *Context) Links() int { return len(c.pending) }

// Contention returns the network's slotted-backoff coordinator. Entries a
// protocol adds are cleared automatically at every interval end.
func (c *Context) Contention() *Contention { return c.cont }

// NoteRound reports one contention round a protocol ran outside the shared
// coordinator — FCSMA's private per-round backoff draws — as a Round record,
// so the journey tracer still sees the link competing.
func (c *Context) NoteRound(n, backoff int) {
	c.inst.observeRound(c.K, c.Eng.Now(), n, backoff)
}

// NoteSwap reports one DP priority-swap decision at the interval's end: pos
// is the priority position C(k), down and up the candidate links, accepted
// whether the exchange was committed. The network counts it and hands it to
// its probes as a Swap record.
func (c *Context) NoteSwap(pos, down, up int, accepted bool) {
	c.inst.observeSwap(c.K, c.End, pos, down, up, accepted)
}

// DebtOrder fills order with the links in decreasing priority weight
// f(d_n⁺(k))·p_n (Ledger.Weight under f, p_n the link's success
// probability), ties broken by link ID for determinism (Eq. 4 allows any
// tie-break). weights is scratch for the weights; both slices hold Links()
// entries. The link-ID tie-break makes the order a strict total order, so
// this allocation-free insertion sort yields exactly the order
// sort.SliceStable would.
func (c *Context) DebtOrder(f debt.InfluenceFunc, order []int, weights []float64) {
	for link := range order {
		order[link] = link
		weights[link] = c.Ledger.Weight(link, f, c.Med.SuccessProb(link))
	}
	for i := 1; i < len(order); i++ {
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
}

// Arrivals returns A_n(k) for link n.
func (c *Context) Arrivals(n int) int { return c.arrivals[n] }

// Pending returns the number of undelivered packets link n still buffers.
func (c *Context) Pending(n int) int { return c.pending[n] }

// Served returns S_n(k) so far in this interval.
func (c *Context) Served(n int) int { return c.served[n] }

// Remaining returns the time left before the interval deadline.
func (c *Context) Remaining() sim.Time {
	if r := c.End - c.Eng.Now(); r > 0 {
		return r
	}
	return 0
}

// FitsData reports whether a full data exchange still fits in the interval.
func (c *Context) FitsData() bool { return c.Remaining() >= c.Profile.DataAirtime }

// FitsEmpty reports whether an empty priority-claiming frame still fits.
func (c *Context) FitsEmpty() bool { return c.Remaining() >= c.Profile.EmptyAirtime }

// QueueEmptyFrame gives link n an empty packet to transmit (Step 2 of
// Algorithm 2: a swap candidate with no arrivals claims its priority).
func (c *Context) QueueEmptyFrame(n int) { c.empty[n] = true }

// HasEmptyFrame reports whether link n has an empty frame queued.
func (c *Context) HasEmptyFrame(n int) bool { return c.empty[n] }

// HasTraffic reports whether link n has anything to put on the air.
func (c *Context) HasTraffic(n int) bool { return c.pending[n] > 0 || c.empty[n] }

// TransmitData starts one data-packet exchange on link n. It returns false
// without transmitting when the link has no pending packet or the exchange
// would overrun the deadline (Remark 4). onDone receives whether the packet
// was delivered; bookkeeping (pending/served) is applied before onDone runs.
func (c *Context) TransmitData(n int, onDone func(delivered bool)) bool {
	if c.pending[n] <= 0 || !c.FitsData() {
		return false
	}
	c.dataDone[n] = onDone
	c.Med.Start(n, c.Profile.DataAirtime, false, c.dataCB[n])
	return true
}

// TransmitEmpty starts an empty priority-claiming frame on link n, if one is
// queued and fits. Empty frames are sent at most once: transmitting consumes
// the queued frame regardless of collision (the claim is in the airtime, not
// the payload).
func (c *Context) TransmitEmpty(n int, onDone func()) bool {
	if !c.empty[n] || !c.FitsEmpty() {
		return false
	}
	c.empty[n] = false
	c.emptyDone[n] = onDone
	c.Med.Start(n, c.Profile.EmptyAirtime, true, c.emptyCB[n])
	return true
}

// ForceEmptyFrame queues and immediately transmits an empty frame for link n
// even if none was queued — the time-squeeze fallback a swap candidate uses
// when its data packet no longer fits but its priority claim must still be
// heard (see the package comment in dp for why this keeps σ consistent).
func (c *Context) ForceEmptyFrame(n int, onDone func()) bool {
	c.empty[n] = true
	return c.TransmitEmpty(n, onDone)
}
