package mac

import (
	"fmt"
	"math/bits"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Contender receives the contention coordinator's callbacks for one link.
type Contender struct {
	// Fire is called when the link's backoff counter reaches zero. The link
	// should start a transmission and return true; returning false means it
	// declined (nothing to send, or nothing fits before the deadline), in
	// which case the channel may remain idle at this boundary.
	Fire func() (started bool)
	// ReachedOne, if non-nil, is called at the instant the counter enters
	// the value 1 — the carrier-sensing moment of Eqs. (7)/(8). busy
	// reports whether some other link began transmitting at this same
	// boundary (boundaries occur only after a full idle slot, so that is
	// the only way the channel can be busy at one).
	ReachedOne func(busy bool)
}

type contentionEntry struct {
	counter   int
	active    bool
	contender Contender
}

// Contention coordinates slotted backoff countdown over a shared medium:
// while the channel is idle, every registered counter decreases by one per
// slot; while it is busy, all counters freeze. Counters reaching zero fire
// (and, if several fire at the same boundary, their transmissions collide on
// the medium). This models the discrete freeze-on-busy backoff of 802.11
// with the coarse slot-boundary carrier sensing the paper assumes.
//
// A Contention subscribes to its medium once and lives as long as the
// network; protocols Add entries each interval and Clear at interval end.
//
// Entries live in a link-indexed array (links are dense small integers), so
// every boundary walks them in deterministic link order with no allocation.
type Contention struct {
	eng     *sim.Engine
	med     *medium.Medium
	slot    sim.Time
	entries []contentionEntry // indexed by link; active flag marks presence
	active  int
	// Slot-skipping state. Boundaries where nothing can fire or sense are
	// pure counter decrements, so the clock is armed directly at the next
	// interesting boundary and the skipped decrements are applied in bulk:
	// base anchors the boundary grid (the last materialization instant),
	// skip is the number of boundaries the armed target covers, and target
	// is the armed instant (base + skip·slot). Counters are materialized —
	// decremented by the boundaries that already elapsed — whenever the
	// countdown freezes or an entry joins mid-grid.
	base   sim.Time
	skip   int
	target sim.Time
	// backoffHist, when set, observes every initial backoff counter —
	// protocol-independent visibility into how much idle countdown each
	// policy pays per interval.
	backoffHist *telemetry.Histogram
	// backoffObs, when set, additionally observes (link, counter) pairs; the
	// network hands them to its probes as Backoff records.
	backoffObs func(link, counter int)
	// fireObs, when set, observes every counter-zero firing and whether the
	// link actually started a transmission; senseObs mirrors each delivered
	// carrier-sense callback. The network hands both to its probes as Fire
	// and Sense records.
	fireObs  func(link int, started bool)
	senseObs func(link int, busy bool)
	// scratch reused by processBoundary.
	fired, sensed []int
	// Conflict-graph (spatial-reuse) mode, active when the medium carries a
	// non-complete conflict graph. Each link counts down on its own slot
	// grid, anchored at anchors[link] (interval join or the instant its
	// neighborhood went idle), and freezes independently while its
	// neighborhood is busy. The engine clock is armed at the global minimum
	// of the per-link interesting boundaries. The complete graph uses the
	// single-grid path above, which is faster and byte-identical.
	perLink bool
	anchors []sim.Time
	// waiting and held partition the active entries as bitsets in the
	// medium's neighborhood layout (bit link%64 of word link/64): waiting
	// links count down, held links are frozen by a busy neighborhood. A
	// carrier-sense batch picks its candidates with one AND per word.
	waiting, held []uint64
	inBoundary    bool
	// due is a min tournament tree over the per-link interesting
	// boundaries: leaf leaf+link holds anchors[link] + horizon·slot for a
	// waiting entry and never otherwise, node i holds the minimum
	// of nodes 2i and 2i+1, and the root due[1] is the instant the clock is
	// armed at. leaf is the smallest power of two >= the link count.
	due  []sim.Time
	leaf int
}

// never is the due instant of a link with nothing to fire or sense.
const never = sim.Time(1<<63 - 1)

// NewContention creates a coordinator for the given medium with the given
// backoff slot duration and subscribes it to carrier-sense transitions.
func NewContention(eng *sim.Engine, med *medium.Medium, slot sim.Time) (*Contention, error) {
	if eng == nil || med == nil {
		return nil, fmt.Errorf("mac: contention needs an engine and a medium")
	}
	if slot <= 0 {
		return nil, fmt.Errorf("mac: non-positive slot %v", slot)
	}
	c := &Contention{
		eng:     eng,
		med:     med,
		slot:    slot,
		entries: make([]contentionEntry, med.Links()),
		fired:   make([]int, 0, med.Links()),
		sensed:  make([]int, 0, med.Links()),
	}
	if g := med.Graph(); !g.Complete() {
		c.perLink = true
		c.anchors = make([]sim.Time, med.Links())
		words := len(g.ClosedRow(0))
		c.waiting = make([]uint64, words)
		c.held = make([]uint64, words)
		c.leaf = 1
		for c.leaf < med.Links() {
			c.leaf *= 2
		}
		c.due = make([]sim.Time, 2*c.leaf)
		c.resetDue()
		// Per-link countdown grids with per-neighborhood freezing: the clock
		// dispatches to the graph boundary walk and carrier sensing arrives
		// per link.
		eng.SetClockFunc(c.onBoundaryGraph)
		med.SubscribeLinks(c)
		return c, nil
	}
	// The slot boundary rides the engine's out-of-heap slot clock: one
	// recurring timer re-armed every idle slot would otherwise dominate heap
	// traffic (and allocate a method-value closure per arm).
	eng.SetClockFunc(c.onBoundary)
	med.Subscribe(c)
	return c, nil
}

// Add registers a link with the given initial backoff counter.
//
// Counters are interpreted as "idle slots to wait before transmitting": a
// counter of zero fires at the next settle point (immediately if the channel
// is idle). A counter that is at one — whether it started there or got there
// by decrement — triggers ReachedOne exactly once, at the instant it enters
// that value.
//
// Add panics if the link is already registered; protocols must Remove or
// Clear first.
func (c *Contention) Add(link, counter int, contender Contender) {
	if link < 0 || link >= len(c.entries) {
		panic(fmt.Sprintf("mac: link %d outside [0, %d)", link, len(c.entries)))
	}
	if c.entries[link].active {
		panic(fmt.Sprintf("mac: link %d already contending", link))
	}
	if counter < 0 {
		panic(fmt.Sprintf("mac: negative backoff counter %d for link %d", counter, link))
	}
	if contender.Fire == nil {
		panic(fmt.Sprintf("mac: link %d contender without Fire", link))
	}
	if c.perLink {
		c.entries[link] = contentionEntry{counter: counter, active: true, contender: contender}
		c.active++
		c.anchors[link] = c.eng.Now()
		if c.med.BusyFor(link) {
			c.held[link/64] |= bit(link)
		} else {
			c.waiting[link/64] |= bit(link)
		}
		c.refresh(link)
		if c.backoffHist != nil {
			c.backoffHist.Observe(float64(counter))
		}
		if c.backoffObs != nil {
			c.backoffObs(link, counter)
		}
		c.rearmGraph()
		return
	}
	// Materialize boundaries that already elapsed before the entry joins, so
	// the bulk decrement never back-applies them to it.
	c.sync()
	c.entries[link] = contentionEntry{counter: counter, active: true, contender: contender}
	c.active++
	if c.backoffHist != nil {
		c.backoffHist.Observe(float64(counter))
	}
	if c.backoffObs != nil {
		c.backoffObs(link, counter)
	}
	if c.eng.ClockArmed() {
		// Adding an entry can only move the next interesting boundary
		// earlier, and only the new entry can move it: retarget from its
		// horizon alone instead of rescanning every entry.
		if at := c.base + sim.Time(horizon(&c.entries[link]))*c.slot; at < c.target {
			c.eng.DisarmClock()
			c.skip = int((at - c.base) / c.slot)
			c.target = at
			c.eng.ArmClock(at)
		}
		return
	}
	c.arm()
}

// SetBackoffHistogram installs the telemetry histogram fed by every Add.
func (c *Contention) SetBackoffHistogram(h *telemetry.Histogram) { c.backoffHist = h }

// SetBackoffObserver installs a per-link observer fed by every Add, called
// with the link and its initial counter at the instant it joins contention.
func (c *Contention) SetBackoffObserver(fn func(link, counter int)) { c.backoffObs = fn }

// SetFireObserver installs an observer called whenever a link's counter
// reaches zero, with whether the link put a frame on the air.
func (c *Contention) SetFireObserver(fn func(link int, started bool)) { c.fireObs = fn }

// SetSenseObserver installs an observer mirroring every delivered ReachedOne
// carrier-sense callback.
func (c *Contention) SetSenseObserver(fn func(link int, busy bool)) { c.senseObs = fn }

// Settle processes entries that are already at zero or one at the current
// instant (fires zeros, senses ones) and arms the slot clock. Protocols call
// it once per interval after Add-ing the interval's full contender set, so
// that initial zero counters fire simultaneously (and collide) rather than
// in registration order.
func (c *Contention) Settle() {
	if c.perLink {
		c.settleGraph()
		return
	}
	if c.med.Busy() {
		return
	}
	c.processBoundary()
}

// Remove deregisters a link, cancelling its pending countdown.
func (c *Contention) Remove(link int) {
	if link < 0 || link >= len(c.entries) || !c.entries[link].active {
		return
	}
	c.entries[link] = contentionEntry{}
	c.active--
	if c.perLink {
		c.release(link)
		c.setDue(link, never)
		c.rearmGraph()
		return
	}
	if c.active == 0 {
		c.disarm()
	}
}

// Clear removes every entry and cancels the slot clock. Networks call it at
// interval end so no countdown leaks across the deadline.
func (c *Contention) Clear() {
	for i := range c.entries {
		c.entries[i] = contentionEntry{}
	}
	c.active = 0
	if c.perLink {
		clear(c.waiting)
		clear(c.held)
		c.resetDue()
		if c.eng.ClockArmed() {
			c.eng.DisarmClock()
		}
		return
	}
	c.disarm()
}

// Active returns the number of currently contending links.
func (c *Contention) Active() int { return c.active }

// Counter returns the current backoff counter of a contending link, and
// whether the link is contending at all. Elapsed-but-unmaterialized grid
// boundaries are accounted for, so the value matches a per-slot countdown.
func (c *Contention) Counter(link int) (int, bool) {
	if link < 0 || link >= len(c.entries) || !c.entries[link].active {
		return 0, false
	}
	if c.perLink {
		c.materialize(link, c.eng.Now())
		// Materializing onto a due instant whose boundary has not run yet
		// moves the link's grid past it; the leaf follows.
		c.refresh(link)
		return c.entries[link].counter, true
	}
	c.sync()
	return c.entries[link].counter, true
}

// ChannelBusy implements medium.Listener: freeze the countdown.
func (c *Contention) ChannelBusy(sim.Time) { c.disarm() }

// ChannelIdle implements medium.Listener: resume the countdown.
func (c *Contention) ChannelIdle(sim.Time) { c.arm() }

func (c *Contention) arm() {
	if c.active == 0 || c.med.Busy() {
		return
	}
	if c.eng.ClockArmed() {
		// The entry set changed under an armed clock: keep the boundary grid
		// anchored at base and retarget to the earliest interesting boundary.
		c.sync()
		d := c.nextInteresting()
		at := c.base + sim.Time(d)*c.slot
		if at != c.target {
			c.eng.DisarmClock()
			c.eng.ArmClock(at)
		}
		c.skip, c.target = d, at
		return
	}
	now := c.eng.Now()
	c.base = now
	c.skip = c.nextInteresting()
	c.target = now + sim.Time(c.skip)*c.slot
	c.eng.ArmClock(c.target)
}

// sync materializes the grid boundaries that elapsed since base while the
// clock is armed: each was a pure decrement (skipping guarantees no fire or
// sense was due before the armed target), so applying them in bulk and
// advancing base keeps every counter exactly where a per-slot countdown
// would have left it.
func (c *Contention) sync() {
	if !c.eng.ClockArmed() {
		return
	}
	if k := int((c.eng.Now() - c.base) / c.slot); k > 0 {
		c.advance(k)
		c.base += sim.Time(k) * c.slot
		c.skip -= k
	}
}

// disarm freezes the countdown, materializing elapsed boundaries first.
func (c *Contention) disarm() {
	c.sync()
	c.eng.DisarmClock()
}

// advance applies k pure-decrement boundaries to every entry.
func (c *Contention) advance(k int) {
	for i := range c.entries {
		e := &c.entries[i]
		if e.active && e.counter > 0 {
			if e.counter -= k; e.counter < 0 {
				e.counter = 0
			}
		}
	}
}

// horizon returns how many grid boundaries ahead an entry's first observable
// boundary lies: firing (counter reaching zero) or delivering its
// carrier-sense callback (entering one with a live hook).
func horizon(e *contentionEntry) int {
	switch {
	case e.counter <= 1:
		return 1
	case e.contender.ReachedOne != nil:
		return e.counter - 1
	default:
		return e.counter
	}
}

// nextInteresting returns the minimum horizon over all active entries.
func (c *Contention) nextInteresting() int {
	d := int(^uint(0) >> 1)
	for i := range c.entries {
		e := &c.entries[i]
		if !e.active {
			continue
		}
		if j := horizon(e); j < d {
			d = j
		}
	}
	return d
}

func (c *Contention) onBoundary() {
	// The clock fired at target = base + skip·slot: apply the covered
	// decrements in one step, then classify. An entry that joined at counter
	// zero while the channel was busy fires at the first post-idle boundary;
	// it must not go negative.
	s := c.skip
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	for link := range c.entries {
		e := &c.entries[link]
		if !e.active {
			continue
		}
		if e.counter > 0 {
			if e.counter -= s; e.counter < 0 {
				e.counter = 0
			}
		}
		switch e.counter {
		case 0:
			c.fired = append(c.fired, link)
		case 1:
			c.sensed = append(c.sensed, link)
		}
	}
	c.finishBoundary()
}

// processBoundary fires all entries at zero (simultaneously — overlapping
// transmissions collide on the medium), then delivers the carrier-sensing
// callbacks to entries at one, then re-arms the slot clock if the channel is
// still idle. Links are walked in index order, keeping runs deterministic.
func (c *Contention) processBoundary() {
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	for link := range c.entries {
		if !c.entries[link].active {
			continue
		}
		switch c.entries[link].counter {
		case 0:
			c.fired = append(c.fired, link)
		case 1:
			c.sensed = append(c.sensed, link)
		}
	}
	c.finishBoundary()
}

// finishBoundary fires and senses the entries collected by onBoundary or
// processBoundary, then re-arms the clock if the channel stayed idle.
func (c *Contention) finishBoundary() {
	started := 0
	for _, link := range c.fired {
		fire := c.entries[link].contender.Fire
		c.entries[link] = contentionEntry{}
		c.active--
		ok := fire()
		if ok {
			started++
		}
		if c.fireObs != nil {
			c.fireObs(link, ok)
		}
	}
	busy := started > 0
	for _, link := range c.sensed {
		// Entries at one are sensed exactly once: entering one again is
		// impossible (counters only decrease), so mark by clearing the hook.
		if hook := c.entries[link].contender.ReachedOne; hook != nil {
			c.entries[link].contender.ReachedOne = nil
			hook(busy)
			if c.senseObs != nil {
				c.senseObs(link, busy)
			}
		}
	}
	if !busy {
		c.arm()
	}
	// If busy, the medium's ChannelBusy already disarmed us and ChannelIdle
	// will re-arm once the firing links release the channel.
}

// --- Conflict-graph (spatial-reuse) mode -----------------------------------
//
// With a non-complete conflict graph there is no single countdown grid:
// links in disjoint neighborhoods freeze and resume independently, so each
// entry carries its own grid anchor. The engine clock is armed at the global
// minimum over waiting entries of anchor + horizon·slot, which the due tree
// keeps at its root; everything the clock skips is, per link, a pure
// decrement applied in bulk when the link is next touched (boundary, freeze,
// or Counter read). Materializing before the due instant moves the anchor
// forward and the counter down by the same number of slots, so the due
// instant itself stays put: a leaf changes only when its entry joins,
// leaves, freezes, resumes, or reaches its due boundary.

// materialize applies link's elapsed grid boundaries up to now: advances the
// anchor to the last boundary at or before now and bulk-decrements the
// counter. By construction of the armed target no fire or sense boundary is
// ever skipped, so the decrements are pure. Held links don't count down.
func (c *Contention) materialize(link int, now sim.Time) {
	if c.held[link/64]&bit(link) != 0 {
		return
	}
	e := &c.entries[link]
	if k := int((now - c.anchors[link]) / c.slot); k > 0 {
		c.anchors[link] += sim.Time(k) * c.slot
		if e.counter > 0 {
			if e.counter -= k; e.counter < 0 {
				e.counter = 0
			}
		}
	}
}

// resetDue marks every link as having nothing due.
func (c *Contention) resetDue() {
	for i := range c.due {
		c.due[i] = never
	}
}

// bit returns link's mask within its bitset word.
func bit(link int) uint64 { return 1 << uint(link%64) }

// release drops link from the waiting and held sets.
func (c *Contention) release(link int) {
	c.waiting[link/64] &^= bit(link)
	c.held[link/64] &^= bit(link)
}

// refresh recomputes link's leaf from its entry: the next boundary at which
// it fires or senses, or never unless it is waiting.
func (c *Contention) refresh(link int) {
	if c.waiting[link/64]&bit(link) == 0 {
		c.setDue(link, never)
		return
	}
	c.setDue(link, c.dueAt(link))
}

// dueAt is a waiting link's next interesting boundary on its own grid.
func (c *Contention) dueAt(link int) sim.Time {
	return c.anchors[link] + sim.Time(horizon(&c.entries[link]))*c.slot
}

// setDue stores link's leaf and repairs the minima on its path to the root,
// stopping at the first node that does not change: O(log N) at most.
func (c *Contention) setDue(link int, at sim.Time) {
	due := c.due
	i := c.leaf + link
	if due[i] == at {
		return
	}
	due[i] = at
	for i > 1 {
		at = min(at, due[i^1])
		i /= 2
		if due[i] == at {
			return
		}
		due[i] = at
	}
}

// repairDue recomputes every inner node above the leaves of links lo..hi,
// level by level up to the root, after a batch wrote those leaves directly.
// The touched range halves per level, so a contiguous neighborhood of k
// links costs about 2k + log N minima.
func (c *Contention) repairDue(lo, hi int) {
	due := c.due
	for lo, hi = (c.leaf+lo)/2, (c.leaf+hi)/2; lo >= 1; lo, hi = lo/2, hi/2 {
		for i := lo; i <= hi; i++ {
			due[i] = min(due[2*i], due[2*i+1])
		}
	}
}

// rearmGraph points the engine clock at the earliest interesting boundary
// over all waiting entries — the root of the due tree — or disarms
// it when there is none.
func (c *Contention) rearmGraph() {
	best := c.due[1]
	armed := c.eng.ClockArmed()
	if best == never {
		if armed {
			c.eng.DisarmClock()
		}
		return
	}
	if armed {
		if c.target == best {
			return
		}
		c.eng.DisarmClock()
	}
	c.target = best
	c.eng.ArmClock(best)
}

// onBoundaryGraph is the graph-mode clock callback: fire or sense the
// entries whose own grid has an interesting boundary at this exact instant.
// Every other entry stays lazy; entries that joined at now wait for their
// first full slot.
func (c *Contention) onBoundaryGraph() {
	c.inBoundary = true
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	c.collectDue(1, c.eng.Now())
	c.finishBoundaryGraph()
}

// collectDue walks the subtree of node i down to every leaf due at now, left
// child first, so links are collected in index order. A due entry
// materializes onto now at counter 0 (fire) or 1 (sense: a counter-1 entry
// is only due while its hook is live). Its leaf is recomputed at once, so an
// Add or Remove from the callbacks that follow rearms against the same
// instants a full rescan would see.
func (c *Contention) collectDue(i int, now sim.Time) {
	if c.due[i] != now {
		return
	}
	if i < c.leaf {
		c.collectDue(2*i, now)
		c.collectDue(2*i+1, now)
		return
	}
	link := i - c.leaf
	c.materialize(link, now)
	if c.entries[link].counter == 0 {
		c.fired = append(c.fired, link)
	} else {
		c.sensed = append(c.sensed, link)
	}
	c.refresh(link)
}

// settleGraph is Settle under a conflict graph: entries already at zero or
// one fire or sense immediately, per neighborhood (a frozen link's
// neighborhood is busy; it keeps waiting).
func (c *Contention) settleGraph() {
	c.inBoundary = true
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	for w, word := range c.waiting {
		for word != 0 {
			link := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			switch c.entries[link].counter {
			case 0:
				c.fired = append(c.fired, link)
			case 1:
				c.sensed = append(c.sensed, link)
			}
		}
	}
	c.finishBoundaryGraph()
}

// finishBoundaryGraph fires the collected entries in link order (conflicting
// same-instant fires collide on the medium; non-conflicting ones proceed
// concurrently), then delivers per-neighborhood carrier-sense callbacks, and
// re-arms the clock for whatever countdown remains.
func (c *Contention) finishBoundaryGraph() {
	for _, link := range c.fired {
		fire := c.entries[link].contender.Fire
		c.entries[link] = contentionEntry{}
		c.release(link)
		c.active--
		// Clear the leaf before Fire runs: an entry the callback re-Adds
		// sets its own.
		c.setDue(link, never)
		ok := fire()
		if c.fireObs != nil {
			c.fireObs(link, ok)
		}
	}
	for _, link := range c.sensed {
		e := &c.entries[link]
		if !e.active {
			continue
		}
		if hook := e.contender.ReachedOne; hook != nil {
			// Clearing the hook leaves the leaf alone: an entry at one is
			// due one slot on either way.
			e.contender.ReachedOne = nil
			// Carrier sensing is local: the link hears only its own
			// neighborhood, not fires elsewhere in the graph.
			busy := c.med.BusyFor(link)
			hook(busy)
			if c.senseObs != nil {
				c.senseObs(link, busy)
			}
		}
	}
	c.inBoundary = false
	c.rearmGraph()
}

// LinksBusy implements medium.LinkListener: freeze the waiting links of
// set. Partial slot progress is lost, like the global freeze (sync floors
// elapsed slots). The frozen leaves are written directly and the tree is
// repaired once over their range.
func (c *Contention) LinksBusy(set []uint64, at sim.Time) {
	lo, hi := -1, 0
	for w, word := range set {
		moved := word & c.waiting[w]
		if moved == 0 {
			continue
		}
		for m := moved; m != 0; m &= m - 1 {
			link := w*64 + bits.TrailingZeros64(m)
			c.materialize(link, at)
			c.due[c.leaf+link] = never
			if lo < 0 {
				lo = link
			}
			hi = link
		}
		c.waiting[w] &^= moved
		c.held[w] |= moved
	}
	c.settleBatch(lo, hi)
}

// LinksIdle implements medium.LinkListener: resume the held links of set,
// each on a fresh grid anchored at the idle instant, like the global resume
// re-anchors base at ChannelIdle.
func (c *Contention) LinksIdle(set []uint64, at sim.Time) {
	lo, hi := -1, 0
	for w, word := range set {
		moved := word & c.held[w]
		if moved == 0 {
			continue
		}
		c.held[w] &^= moved
		c.waiting[w] |= moved
		for m := moved; m != 0; m &= m - 1 {
			link := w*64 + bits.TrailingZeros64(m)
			c.anchors[link] = at
			c.due[c.leaf+link] = c.dueAt(link)
			if lo < 0 {
				lo = link
			}
			hi = link
		}
	}
	c.settleBatch(lo, hi)
}

// settleBatch repairs the due tree over the leaves a batch wrote (none when
// lo < 0) and re-arms the clock once. A batch moves the root one way only —
// freezes raise it, resumes lower it — and schedules no heap event, so the
// single arm lands in the same (time, seq) order against every heap event
// as arming after each link would.
func (c *Contention) settleBatch(lo, hi int) {
	if lo < 0 {
		return
	}
	c.repairDue(lo, hi)
	if !c.inBoundary {
		c.rearmGraph()
	}
}

var _ medium.Listener = (*Contention)(nil)
var _ medium.LinkListener = (*Contention)(nil)
