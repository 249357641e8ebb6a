package mac

import (
	"fmt"
	"math/bits"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
)

// refEntry is one contending link of the reference, counter and all.
type refEntry struct {
	counter   int
	active    bool
	contender Contender
}

// refHorizon returns how many boundaries ahead an entry's first observable
// boundary lies: firing (counter reaching zero) or delivering its
// carrier-sense callback (entering one with a live hook).
func refHorizon(e *refEntry) int {
	switch {
	case e.counter <= 1:
		return 1
	case e.contender.ReachedOne != nil:
		return e.counter - 1
	default:
		return e.counter
	}
}

// refGraphContention is the contention clock as it was before the due tree
// and batched carrier sensing, with the clique components of the conflict
// graph counting on one grid each. Its unit of countdown is a unit: a whole
// clique component (the single grid that the complete graph always used),
// or one link of a non-clique component (the per-link grid graph mode
// used). It unpacks every LinksBusy and LinksIdle set into one freeze or
// resume per link, every Add, Remove, per-link transition and boundary
// rescans all entries for the earliest interesting boundary and re-arms, and
// each boundary materializes every unfrozen unit. It is kept only as the
// reference that FuzzContentionGraph compares Contention against.
type refGraphContention struct {
	eng        *sim.Engine
	med        *medium.Medium
	slot       sim.Time
	entries    []refEntry
	active     int
	target     sim.Time
	fired      []int
	sensed     []int
	inBoundary bool
	// unit maps each link to its unit, named by the unit's lowest link;
	// anchors and frozen are indexed by unit.
	unit    []int
	anchors []sim.Time
	frozen  []bool
}

func newRefGraphContention(eng *sim.Engine, med *medium.Medium, slot sim.Time) *refGraphContention {
	g := med.Graph()
	n := med.Links()
	c := &refGraphContention{
		eng:     eng,
		med:     med,
		slot:    slot,
		entries: make([]refEntry, n),
		unit:    make([]int, n),
		anchors: make([]sim.Time, n),
		frozen:  make([]bool, n),
	}
	for link := range c.unit {
		c.unit[link] = link
		if !g.Clique(g.Component(link)) {
			continue
		}
		for other := 0; other < link; other++ {
			if g.Component(other) == g.Component(link) {
				c.unit[link] = other
				break
			}
		}
	}
	eng.SetClockFunc(c.onBoundary)
	med.SubscribeLinks(c)
	return c
}

// contending reports whether any link of unit u holds an entry.
func (c *refGraphContention) contending(u int) bool {
	for link := range c.entries {
		if c.unit[link] == u && c.entries[link].active {
			return true
		}
	}
	return false
}

// Add anchors an idle unit at the join and keeps a running one on its grid,
// materialized up to the join. A frozen unit whose link hears an idle
// neighborhood has drained inside a finishing transmission's onDone and
// resumes at once. A join at the instant a unit is due, before its boundary
// runs, is materialized up to the boundary before and counts one more, so
// that it takes part in the pending one.
func (c *refGraphContention) Add(link, counter int, contender Contender) {
	if c.entries[link].active {
		panic(fmt.Sprintf("mac: link %d already contending", link))
	}
	u := c.unit[link]
	busy := c.med.BusyFor(link)
	now := c.eng.Now()
	switch {
	case !c.contending(u):
		c.anchors[u] = now
		c.frozen[u] = busy
	case c.frozen[u] && !busy:
		c.anchors[u] = now
		c.frozen[u] = false
	case c.due(u) == now:
		c.materialize(u, now-c.slot)
		counter++
	default:
		c.materialize(u, now)
	}
	c.entries[link] = refEntry{counter: counter, active: true, contender: contender}
	c.active++
	c.rearm()
}

func (c *refGraphContention) Remove(link int) {
	if link < 0 || link >= len(c.entries) || !c.entries[link].active {
		return
	}
	c.entries[link] = refEntry{}
	c.active--
	c.rearm()
}

func (c *refGraphContention) Clear() {
	for i := range c.entries {
		c.entries[i] = refEntry{}
		c.frozen[i] = false
	}
	c.active = 0
	if c.eng.ClockArmed() {
		c.eng.DisarmClock()
	}
}

func (c *refGraphContention) Active() int { return c.active }

func (c *refGraphContention) Counter(link int) (int, bool) {
	if link < 0 || link >= len(c.entries) || !c.entries[link].active {
		return 0, false
	}
	u := c.unit[link]
	k := 0
	if !c.frozen[u] {
		k = int((c.eng.Now() - c.anchors[u]) / c.slot)
	}
	return max(c.entries[link].counter-k, 0), true
}

func (c *refGraphContention) Settle() {
	c.inBoundary = true
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	for u := range c.entries {
		if c.unit[u] == u {
			c.materialize(u, c.eng.Now())
		}
	}
	for link := range c.entries {
		e := &c.entries[link]
		if !e.active || c.frozen[c.unit[link]] {
			continue
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

// materialize applies unit u's elapsed boundaries up to now to all its
// entries.
func (c *refGraphContention) materialize(u int, now sim.Time) {
	if c.frozen[u] {
		return
	}
	k := int((now - c.anchors[u]) / c.slot)
	if k <= 0 {
		return
	}
	c.anchors[u] += sim.Time(k) * c.slot
	for link := range c.entries {
		if e := &c.entries[link]; e.active && c.unit[link] == u && e.counter > 0 {
			if e.counter -= k; e.counter < 0 {
				e.counter = 0
			}
		}
	}
}

// due returns the instant of unit u's next interesting boundary, or -1 when
// it has none.
func (c *refGraphContention) due(u int) sim.Time {
	best := sim.Time(-1)
	for link := range c.entries {
		e := &c.entries[link]
		if !e.active || c.unit[link] != u || c.frozen[u] {
			continue
		}
		if at := c.anchors[u] + sim.Time(refHorizon(e))*c.slot; best < 0 || at < best {
			best = at
		}
	}
	return best
}

func (c *refGraphContention) rearm() {
	best := sim.Time(-1)
	for link := range c.entries {
		e := &c.entries[link]
		u := c.unit[link]
		if !e.active || c.frozen[u] {
			continue
		}
		at := c.anchors[u] + sim.Time(refHorizon(e))*c.slot
		if best < 0 || at < best {
			best = at
		}
	}
	armed := c.eng.ClockArmed()
	if best < 0 {
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

func (c *refGraphContention) onBoundary() {
	now := c.eng.Now()
	c.inBoundary = true
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	// Materialize every unit first; those that land on now have a boundary
	// here.
	onGrid := make([]bool, len(c.entries))
	for u := range c.entries {
		if c.unit[u] != u || c.frozen[u] || !c.contending(u) {
			continue
		}
		if k := int((now - c.anchors[u]) / c.slot); k > 0 {
			c.materialize(u, now)
			onGrid[u] = c.anchors[u] == now
		}
	}
	for link := range c.entries {
		e := &c.entries[link]
		if !e.active || !onGrid[c.unit[link]] {
			continue
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

func (c *refGraphContention) finishBoundary() {
	for _, link := range c.fired {
		fire := c.entries[link].contender.Fire
		c.entries[link] = refEntry{}
		c.active--
		fire()
	}
	for _, link := range c.sensed {
		e := &c.entries[link]
		if !e.active {
			continue
		}
		if hook := e.contender.ReachedOne; hook != nil {
			e.contender.ReachedOne = nil
			hook(c.med.BusyFor(link))
		}
	}
	c.inBoundary = false
	c.rearm()
}

func (c *refGraphContention) LinksBusy(set []uint64, at sim.Time) {
	eachLink(set, func(link int) { c.linkBusy(link, at) })
}

func (c *refGraphContention) LinksIdle(set []uint64, at sim.Time) {
	eachLink(set, func(link int) { c.linkIdle(link, at) })
}

// eachLink calls fn for every link in set, in ascending order.
func eachLink(set []uint64, fn func(link int)) {
	for w, word := range set {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

func (c *refGraphContention) linkBusy(link int, at sim.Time) {
	u := c.unit[link]
	if c.frozen[u] || !c.contending(u) {
		return
	}
	c.materialize(u, at)
	c.frozen[u] = true
	if !c.inBoundary {
		c.rearm()
	}
}

func (c *refGraphContention) linkIdle(link int, at sim.Time) {
	u := c.unit[link]
	if !c.frozen[u] || !c.contending(u) {
		return
	}
	c.frozen[u] = false
	c.anchors[u] = at
	if !c.inBoundary {
		c.rearm()
	}
}
