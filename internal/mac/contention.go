package mac

import (
	"fmt"
	"math/bits"
	"slices"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
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

// contentionEntry is one contending link. Its counter is not stored: target
// is the boundary, in its grid's count, at which the counter reaches zero,
// so the counter is max(target − clock, 0) and a grid counts down all its
// entries by advancing its clock.
type contentionEntry struct {
	target    int
	active    bool
	contender Contender
}

// key is the boundary at which an entry next fires or senses: target, or
// target−1 while its carrier-sense hook is live (the counter enters one
// there). A grid is due at its least key, but never before its next
// boundary.
func key(e *contentionEntry) int {
	if e.contender.ReachedOne != nil {
		return e.target - 1
	}
	return e.target
}

// grid is one slotted countdown: the entries on it decrement together every
// idle slot after its anchor and freeze together while their neighborhood is
// busy. A clique component of the conflict graph is one collision domain —
// the complete graph is the paper's whole channel — and all its links count
// on one grid. Each link of a non-clique component counts on a grid of its
// own, because its neighborhood goes busy and idle apart from its
// neighbors'. Components never share a grid: they are separate channels.
type grid struct {
	// clock counts the grid's boundaries; base is the instant of boundary
	// clock: the instant the grid (re)started counting, advanced to the
	// last boundary materialized since. A running grid's due instant is
	// base + skip·slot.
	base  sim.Time
	clock int
	skip  int
	// Entries lie grid by grid: the members' entries take the slots from
	// lo on, in link order, and order[lo:lo+n] lists the slots of the n
	// contending ones by key. clique marks the grid of a clique component;
	// the others have one member.
	lo     int
	n      int
	clique bool
	// held marks a grid frozen by a busy neighborhood.
	held bool
	// dirty marks a grid whose entries were collected, fired or sensed in
	// the current boundary: its due instant is recomputed before the clock
	// is next armed.
	dirty bool
}

// Contention coordinates slotted backoff countdown over a shared medium:
// while a link's neighborhood is idle its counter decreases by one per
// slot; while it is busy the counter freezes. Counters reaching zero fire
// (and, if conflicting links fire at the same boundary, their transmissions
// collide on the medium). This models the discrete freeze-on-busy backoff of
// 802.11 with the coarse slot-boundary carrier sensing the paper assumes.
//
// A Contention subscribes to its medium once and lives as long as the
// network; protocols Add entries each interval and Clear at interval end.
//
// Counters live on grids (see grid): one per clique component of the
// conflict graph, one per link of a non-clique component. Boundaries where
// nothing can fire or sense are pure counter decrements, so each grid keeps
// its entries in order of their next interesting boundary, arms at the
// first, and applies the skipped decrements in bulk — materialized, by
// advancing its boundary count — whenever it freezes, an entry joins it, or
// a counter is read. The engine clock is armed at the earliest of the
// grids' due instants. A boundary visits only the entries due at it and
// fires them in link order, with no allocation.
type Contention struct {
	eng  *sim.Engine
	med  *medium.Medium
	slot sim.Time
	// entries holds one slot per link, laid out grid by grid; slotOf and
	// linkAt map links to slots and back, and order holds each grid's
	// contending slots by key. The active flag marks presence.
	entries               []contentionEntry
	slotOf, linkAt, order []int
	active                int
	grids                 []grid
	gridOf                []int // the grid each link counts on
	// due is a min tournament tree over the grids' interesting boundaries:
	// leaf leaf+g holds grid g's due instant while it runs and never
	// otherwise; node i holds the minimum of nodes 2i and 2i+1, and the root
	// due[1] is the instant the clock is armed at (target). leaf is the
	// smallest power of two >= the grid count.
	due    []sim.Time
	leaf   int
	target sim.Time
	// inBoundary is set while a boundary (or Settle) fires and senses;
	// dirty lists the grids whose leaves wait for the next rearm.
	inBoundary bool
	dirty      []int
	// backoffObs, when set, observes every initial (link, counter) pair;
	// the network feeds its backoff histogram and its probes' Backoff
	// records from it.
	backoffObs func(link, counter int)
	// fireObs, when set, observes every counter-zero firing and whether the
	// link actually started a transmission; senseObs mirrors each delivered
	// carrier-sense callback. The network hands both to its probes as Fire
	// and Sense records.
	fireObs  func(link int, started bool)
	senseObs func(link int, busy bool)
	// scratch reused by every boundary.
	fired, sensed []int
	// oneGrid and oneDue back grids and due when the conflict graph is one
	// clique, the paper's channel: one allocation less each.
	oneGrid [1]grid
	oneDue  [2]sim.Time
}

// never is the due instant of a grid with nothing to fire or sense.
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
	n := med.Links()
	ints := make([]int, 7*n)
	c := &Contention{
		eng:     eng,
		med:     med,
		slot:    slot,
		entries: make([]contentionEntry, n),
		fired:   ints[:0:n],
		sensed:  ints[n : n : 2*n],
		dirty:   ints[2*n : 2*n : 3*n],
		gridOf:  ints[3*n : 4*n : 4*n],
		slotOf:  ints[4*n : 5*n : 5*n],
		linkAt:  ints[5*n : 6*n : 6*n],
		order:   ints[6*n:],
	}
	c.buildGrids(med.Graph())
	eng.SetClockFunc(c.onBoundary)
	med.SubscribeLinks(c)
	return c, nil
}

// buildGrids lays out the grids in order of their lowest link, one per
// clique component and one per link of the other components, and their
// entry slots in the same order.
func (c *Contention) buildGrids(g *medium.Graph) {
	n := g.Links()
	count := 0
	for link := 0; link < n; link++ {
		if !g.Clique(g.Component(link)) || lowest(g.ClosedRow(link)) == link {
			count++
		}
	}
	c.grids = c.oneGrid[:0]
	if count > 1 {
		c.grids = make([]grid, 0, count)
	}
	next := 0
	for link := 0; link < n; link++ {
		row := g.ClosedRow(link)
		clique := g.Clique(g.Component(link))
		if clique && lowest(row) != link {
			c.gridOf[link] = c.gridOf[lowest(row)]
			continue
		}
		c.gridOf[link] = len(c.grids)
		c.grids = append(c.grids, grid{lo: next, clique: clique})
		if clique {
			// A clique's closed row is its whole component.
			for w, word := range row {
				for ; word != 0; word &= word - 1 {
					member := w*64 + bits.TrailingZeros64(word)
					c.slotOf[member], c.linkAt[next] = next, member
					next++
				}
			}
		} else {
			c.slotOf[link], c.linkAt[next] = next, link
			next++
		}
	}
	c.leaf = 1
	for c.leaf < len(c.grids) {
		c.leaf *= 2
	}
	c.due = c.oneDue[:]
	if c.leaf > 1 {
		c.due = make([]sim.Time, 2*c.leaf)
	}
	c.resetDue()
}

// lowest returns the lowest link in a bitset.
func lowest(set []uint64) int {
	for w, word := range set {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Add registers a link with the given initial backoff counter.
//
// Counters are interpreted as "idle slots to wait before transmitting": a
// counter of zero fires at the next settle point (immediately if the
// neighborhood is idle). A counter that is at one — whether it started there
// or got there by decrement — triggers ReachedOne exactly once, at the
// instant it enters that value.
//
// An entry joining a running grid counts on that grid from its last
// boundary; one joining an empty grid anchors it at the join. An entry that
// joins at the instant of its grid's due boundary, before the boundary runs,
// takes part in it.
//
// Add panics if the link is already registered; protocols must Remove or
// Clear first.
func (c *Contention) Add(link, counter int, contender Contender) {
	if link < 0 || link >= len(c.entries) {
		panic(fmt.Sprintf("mac: link %d outside [0, %d)", link, len(c.entries)))
	}
	e := c.entry(link)
	if e.active {
		panic(fmt.Sprintf("mac: link %d already contending", link))
	}
	if counter < 0 {
		panic(fmt.Sprintf("mac: negative backoff counter %d for link %d", counter, link))
	}
	if contender.Fire == nil {
		panic(fmt.Sprintf("mac: link %d contender without Fire", link))
	}
	gi := c.gridOf[link]
	g := &c.grids[gi]
	now := c.eng.Now()
	join := 0
	switch {
	case g.n == 0:
		// An empty grid starts counting at the join, frozen if the link's
		// neighborhood is busy.
		g.base, g.held = now, c.med.BusyFor(link)
	case c.due[c.leaf+gi] == now && g.base < now:
		// The grid is due now and its boundary has not run yet: the entry
		// joins before it, so that boundary stays pending and counts it.
		c.materialize(g, now-c.slot)
		join = 1
	default:
		// Materialize the boundaries that already elapsed before the entry
		// joins, so the bulk decrement never back-applies them to it.
		c.materialize(g, now)
	}
	e.target, e.active, e.contender = g.clock+join+counter, true, contender
	c.active++
	c.insert(g, c.slotOf[link])
	if c.backoffObs != nil {
		c.backoffObs(link, counter)
	}
	moved := false
	switch due := c.due[c.leaf+gi]; {
	case g.held:
		// The grid's neighborhood drained inside a finishing transmission's
		// onDone and the idle notice is still on its way: resume now, as
		// the notice would.
		if moved = !c.med.BusyFor(link); moved {
			c.resume(gi, now)
		}
	case g.dirty:
	default:
		h := max(key(e), g.clock+1) - g.clock
		if at := g.base + sim.Time(h)*c.slot; at < due {
			g.skip = h
			c.setDue(gi, at)
			moved = true
		}
	}
	// Only a grid whose due instant moved can move the clock, except in a
	// boundary, where the dirty grids are recomputed first.
	if moved || len(c.dirty) != 0 {
		c.rearm()
	}
}

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
// instant (fires zeros, senses ones) on every running grid, counting the
// boundaries elapsed on it, and arms the slot clock; entries on frozen grids
// keep waiting. Protocols call it once per interval after Add-ing the
// interval's full contender set, so that initial zero counters fire
// simultaneously (and collide) rather than in registration order.
func (c *Contention) Settle() {
	c.inBoundary = true
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	now := c.eng.Now()
	for gi := range c.grids {
		if g := &c.grids[gi]; g.n != 0 && !g.held {
			c.materialize(g, now)
			c.collect(gi)
		}
	}
	c.finishBoundary()
}

// Remove deregisters a link, cancelling its pending countdown.
func (c *Contention) Remove(link int) {
	if link < 0 || link >= len(c.entries) || !c.entry(link).active {
		return
	}
	c.leave(link)
	c.refresh(c.gridOf[link])
	c.rearm()
}

// leave drops link's entry from its grid.
func (c *Contention) leave(link int) {
	slot := c.slotOf[link]
	c.entries[slot] = contentionEntry{}
	c.active--
	c.unlist(&c.grids[c.gridOf[link]], slot)
}

// insert lists slot's entry in its grid's order, after the entries whose
// key is no larger.
func (c *Contention) insert(g *grid, slot int) {
	order := c.order[g.lo : g.lo+g.n+1]
	k := key(&c.entries[slot])
	i := g.n
	for ; i > 0 && key(&c.entries[order[i-1]]) > k; i-- {
		order[i] = order[i-1]
	}
	order[i] = slot
	g.n++
}

// unlist drops slot from its grid's order.
func (c *Contention) unlist(g *grid, slot int) {
	order := c.order[g.lo : g.lo+g.n]
	i := slices.Index(order, slot)
	copy(order[i:], order[i+1:])
	g.n--
}

// rekey moves slot's entry later in its grid's order after its key grew.
func (c *Contention) rekey(g *grid, slot int) {
	order := c.order[g.lo : g.lo+g.n]
	k := key(&c.entries[slot])
	for i := slices.Index(order, slot); i+1 < len(order) && key(&c.entries[order[i+1]]) <= k; i++ {
		order[i], order[i+1] = order[i+1], order[i]
	}
}

// Clear removes every entry and cancels the slot clock. Networks call it at
// interval end so no countdown leaks across the deadline.
func (c *Contention) Clear() {
	clear(c.entries)
	c.active = 0
	for i := range c.grids {
		c.grids[i].n, c.grids[i].dirty = 0, false
	}
	c.dirty = c.dirty[:0]
	c.resetDue()
	if c.eng.ClockArmed() {
		c.eng.DisarmClock()
	}
}

// Active returns the number of currently contending links.
func (c *Contention) Active() int { return c.active }

// Counter returns the current backoff counter of a contending link, and
// whether the link is contending at all. Elapsed-but-unmaterialized grid
// boundaries are accounted for, so the value matches a per-slot countdown.
// Reading a counter leaves the schedule alone.
func (c *Contention) Counter(link int) (int, bool) {
	if link < 0 || link >= len(c.entries) || !c.entry(link).active {
		return 0, false
	}
	g := &c.grids[c.gridOf[link]]
	elapsed := 0
	if !g.held {
		elapsed = int((c.eng.Now() - g.base) / c.slot)
	}
	return max(c.entry(link).target-g.clock-elapsed, 0), true
}

// entry returns link's entry.
func (c *Contention) entry(link int) *contentionEntry { return &c.entries[c.slotOf[link]] }

// materialize counts the grid boundaries elapsed up to now: advances the
// anchor to the last boundary at or before now and the clock with it, which
// decrements every counter at once. By construction of the armed target no
// fire or sense boundary is ever skipped, so the decrements are pure; a
// counter already at zero (an entry that joined at zero while its
// neighborhood was busy) stays there. Held grids don't count down, and a
// grid with no elapsed boundary is left alone without dividing.
func (c *Contention) materialize(g *grid, now sim.Time) {
	if g.held || now-g.base < c.slot {
		return
	}
	k := int((now - g.base) / c.slot)
	g.base += sim.Time(k) * c.slot
	g.clock += k
	g.skip -= k
}

// resume restarts frozen grid gi on a fresh grid anchored at instant at.
func (c *Contention) resume(gi int, at sim.Time) {
	g := &c.grids[gi]
	g.base, g.held = at, false
	c.refresh(gi)
}

// refresh recomputes grid gi's leaf from its first entry: the next boundary
// at which one fires or senses, or never unless the grid is running.
func (c *Contention) refresh(gi int) {
	g := &c.grids[gi]
	if g.held || g.n == 0 {
		c.setDue(gi, never)
		return
	}
	g.skip = max(key(&c.entries[c.order[g.lo]]), g.clock+1) - g.clock
	c.setDue(gi, g.base+sim.Time(g.skip)*c.slot)
}

// markDirty defers grid gi's leaf to the next rearm.
func (c *Contention) markDirty(gi int) {
	if g := &c.grids[gi]; !g.dirty {
		g.dirty = true
		c.dirty = append(c.dirty, gi)
	}
}

// resetDue marks every grid as having nothing due.
func (c *Contention) resetDue() {
	for i := range c.due {
		c.due[i] = never
	}
}

// setDue stores grid gi's leaf and repairs the minima on its path to the
// root, stopping at the first node that does not change: O(log G) at most.
func (c *Contention) setDue(gi int, at sim.Time) {
	due := c.due
	i := c.leaf + gi
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

// rearm recomputes the leaves of the dirty grids, then points the engine
// clock at the earliest interesting boundary over all grids — the root of
// the due tree — or disarms it when there is none. A clock already armed at
// that instant keeps its place in the engine's (time, seq) order.
func (c *Contention) rearm() {
	for _, gi := range c.dirty {
		// A grid that froze in the boundary already has nothing due.
		g := &c.grids[gi]
		if g.dirty = false; !g.held {
			c.refresh(gi)
		}
	}
	c.dirty = c.dirty[:0]
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

// onBoundary is the clock callback: fire or sense the entries of the grids
// whose interesting boundary is this exact instant. Every other grid stays
// lazy; entries that joined at now wait for their first full slot.
func (c *Contention) onBoundary() {
	now := c.eng.Now()
	c.inBoundary = true
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	// Visit the leaves due now from left to right: descend to the leftmost
	// one below node i, then climb to the first right sibling still due.
	due := c.due
	for i := 1; due[1] == now; i++ {
		for i < c.leaf {
			if i *= 2; due[i] != now {
				i++
			}
		}
		g := &c.grids[i-c.leaf]
		g.base, g.clock, g.skip = now, g.clock+g.skip, 0
		c.collect(i - c.leaf)
		for i > 1 && (i%2 == 1 || due[i+1] != now) {
			i /= 2
		}
		if i == 1 {
			break
		}
	}
	c.finishBoundary()
}

// collect gathers grid gi's entries due at its current boundary: those at
// counter 0 fire, those entering 1 with a live hook sense. They lead the
// grid's order. The grid's leaf is recomputed at the next rearm.
func (c *Contention) collect(gi int) {
	g := &c.grids[gi]
	for _, slot := range c.order[g.lo : g.lo+g.n] {
		e := &c.entries[slot]
		if key(e) > g.clock {
			break
		}
		if e.target <= g.clock {
			c.fired = append(c.fired, c.linkAt[slot])
		} else {
			c.sensed = append(c.sensed, c.linkAt[slot])
		}
	}
	c.markDirty(gi)
}

// finishBoundary fires the collected entries in link order (conflicting
// same-instant fires collide on the medium; non-conflicting ones proceed
// concurrently), then delivers the carrier-sense callbacks, and re-arms the
// clock for whatever countdown remains.
func (c *Contention) finishBoundary() {
	// A grid collects in order of its keys, and several grids may be due.
	if len(c.fired) > 1 {
		slices.Sort(c.fired)
	}
	if len(c.sensed) > 1 {
		slices.Sort(c.sensed)
	}
	for _, link := range c.fired {
		fire := c.entry(link).contender.Fire
		c.leave(link)
		// The grid's leaf waits for the next rearm, which sees the entries
		// still on it, and whatever the callback re-Adds.
		c.markDirty(c.gridOf[link])
		ok := fire()
		if c.fireObs != nil {
			c.fireObs(link, ok)
		}
	}
	for _, link := range c.sensed {
		e := c.entry(link)
		if !e.active {
			continue
		}
		if hook := e.contender.ReachedOne; hook != nil {
			// Entries at one are sensed exactly once: entering one again is
			// impossible (counters only decrease), so mark by clearing the
			// hook. Its key grows by one, which moves it in the grid's
			// order but not the grid's due instant: an entry at one is due
			// one slot on either way.
			e.contender.ReachedOne = nil
			gi := c.gridOf[link]
			c.rekey(&c.grids[gi], c.slotOf[link])
			c.markDirty(gi)
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
	c.rearm()
}

// LinksBusy implements medium.LinkListener: freeze the running grids of the
// links in set.
func (c *Contention) LinksBusy(set []uint64, at sim.Time) {
	// One call carries the links of one component: for a clique, all of
	// them, on one grid, which is frozen once instead of once per member.
	if gi := c.gridOf[lowest(set)]; c.grids[gi].clique {
		c.settleBatch(c.freeze(gi, at))
		return
	}
	moved := false
	for w, word := range set {
		for m := word; m != 0; m &= m - 1 {
			moved = c.freeze(c.gridOf[w*64+bits.TrailingZeros64(m)], at) || moved
		}
	}
	c.settleBatch(moved)
}

// freeze stops grid gi counting at instant at, if it runs with entries,
// and reports whether it did. Partial slot progress is lost.
func (c *Contention) freeze(gi int, at sim.Time) bool {
	g := &c.grids[gi]
	if g.n == 0 || g.held {
		return false
	}
	c.materialize(g, at)
	g.held = true
	c.setDue(gi, never)
	return true
}

// LinksIdle implements medium.LinkListener: resume the frozen grids of the
// links in set, each on a fresh grid anchored at the idle instant.
func (c *Contention) LinksIdle(set []uint64, at sim.Time) {
	if gi := c.gridOf[lowest(set)]; c.grids[gi].clique {
		c.settleBatch(c.thaw(gi, at))
		return
	}
	moved := false
	for w, word := range set {
		for m := word; m != 0; m &= m - 1 {
			moved = c.thaw(c.gridOf[w*64+bits.TrailingZeros64(m)], at) || moved
		}
	}
	c.settleBatch(moved)
}

// thaw resumes grid gi at instant at, if it is frozen with entries, and
// reports whether it did.
func (c *Contention) thaw(gi int, at sim.Time) bool {
	if g := &c.grids[gi]; g.n == 0 || !g.held {
		return false
	}
	c.resume(gi, at)
	return true
}

// settleBatch re-arms the clock once after a batch moved some grid. A batch
// moves the root one way only — freezes raise it, resumes lower it — and
// schedules no heap event, so the single arm lands in the same (time, seq)
// order against every heap event as arming after each grid would. Inside a
// boundary the re-arm waits for its end.
func (c *Contention) settleBatch(moved bool) {
	if moved && !c.inBoundary {
		c.rearm()
	}
}

var _ medium.LinkListener = (*Contention)(nil)
