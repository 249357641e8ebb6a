package mac

import (
	"fmt"
	"math/bits"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
)

// refGraphContention is the graph-mode contention clock as it was before the
// due tree and batched carrier sensing: it unpacks every LinksBusy and
// LinksIdle set into one freeze or resume per link, and every Add, Remove,
// per-link transition and boundary rescans all entries for the earliest
// interesting boundary and re-arms, and each boundary materializes every
// unfrozen entry. It is kept only as the reference that FuzzContentionGraph
// compares Contention against.
type refGraphContention struct {
	eng        *sim.Engine
	med        *medium.Medium
	slot       sim.Time
	entries    []contentionEntry
	active     int
	target     sim.Time
	fired      []int
	sensed     []int
	anchors    []sim.Time
	frozen     []bool
	inBoundary bool
}

func newRefGraphContention(eng *sim.Engine, med *medium.Medium, slot sim.Time) *refGraphContention {
	g := med.Graph()
	if g == nil || g.Complete() {
		panic("refGraphContention needs a non-complete conflict graph")
	}
	n := med.Links()
	c := &refGraphContention{
		eng:     eng,
		med:     med,
		slot:    slot,
		entries: make([]contentionEntry, n),
		anchors: make([]sim.Time, n),
		frozen:  make([]bool, n),
	}
	eng.SetClockFunc(c.onBoundary)
	med.SubscribeLinks(c)
	return c
}

func (c *refGraphContention) Add(link, counter int, contender Contender) {
	if c.entries[link].active {
		panic(fmt.Sprintf("mac: link %d already contending", link))
	}
	c.entries[link] = contentionEntry{counter: counter, active: true, contender: contender}
	c.active++
	c.anchors[link] = c.eng.Now()
	c.frozen[link] = c.med.BusyFor(link)
	c.rearm()
}

func (c *refGraphContention) Remove(link int) {
	if link < 0 || link >= len(c.entries) || !c.entries[link].active {
		return
	}
	c.entries[link] = contentionEntry{}
	c.active--
	c.frozen[link] = false
	c.rearm()
}

func (c *refGraphContention) Clear() {
	for i := range c.entries {
		c.entries[i] = contentionEntry{}
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
	c.materialize(link, c.eng.Now())
	return c.entries[link].counter, true
}

func (c *refGraphContention) Settle() {
	c.inBoundary = true
	c.fired = c.fired[:0]
	c.sensed = c.sensed[:0]
	for link := range c.entries {
		e := &c.entries[link]
		if !e.active || c.frozen[link] {
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

func (c *refGraphContention) materialize(link int, now sim.Time) {
	if c.frozen[link] {
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

func (c *refGraphContention) rearm() {
	best := sim.Time(-1)
	for link := range c.entries {
		e := &c.entries[link]
		if !e.active || c.frozen[link] {
			continue
		}
		at := c.anchors[link] + sim.Time(horizon(e))*c.slot
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
	for link := range c.entries {
		e := &c.entries[link]
		if !e.active || c.frozen[link] {
			continue
		}
		k := int((now - c.anchors[link]) / c.slot)
		if k <= 0 {
			continue
		}
		c.anchors[link] += sim.Time(k) * c.slot
		if e.counter > 0 {
			if e.counter -= k; e.counter < 0 {
				e.counter = 0
			}
		}
		if c.anchors[link] != now {
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
		c.entries[link] = contentionEntry{}
		c.frozen[link] = false
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
	if !c.entries[link].active || c.frozen[link] {
		return
	}
	c.materialize(link, at)
	c.frozen[link] = true
	if !c.inBoundary {
		c.rearm()
	}
}

func (c *refGraphContention) linkIdle(link int, at sim.Time) {
	if !c.entries[link].active || !c.frozen[link] {
		return
	}
	c.frozen[link] = false
	c.anchors[link] = at
	if !c.inBoundary {
		c.rearm()
	}
}
