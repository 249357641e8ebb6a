package sim

import (
	"fmt"
	"slices"
	"testing"
)

// queueModel is the surface the engine fuzz script drives, implemented by
// the engine itself and by refQueue. Events are named by ids in schedule
// order.
type queueModel interface {
	now() Time
	schedule(at Time, fn func()) int
	cancel(id int) bool
	arm(at Time)
	disarm() bool
	armed() bool
	step() bool
	runUntil(deadline Time)
	pending() int
	maxPending() int
	fired() uint64
}

// engineModel adapts an Engine, tracking which event each recycled Timer
// object currently carries so that a stale handle fails the test instead of
// cancelling someone else's event.
type engineModel struct {
	e      *Engine
	timers []*Timer
	owner  map[*Timer]int
}

func newEngineModel(clock func()) *engineModel {
	m := &engineModel{e: NewEngine(1), owner: make(map[*Timer]int)}
	m.e.SetClockFunc(clock)
	return m
}

func (m *engineModel) now() Time { return m.e.Now() }

func (m *engineModel) schedule(at Time, fn func()) int {
	t := m.e.ScheduleAt(at, fn)
	id := len(m.timers)
	m.timers = append(m.timers, t)
	m.owner[t] = id
	return id
}

func (m *engineModel) cancel(id int) bool {
	t := m.timers[id]
	if m.owner[t] != id {
		panic(fmt.Sprintf("handle of event %d now carries event %d", id, m.owner[t]))
	}
	return m.e.Cancel(t)
}

func (m *engineModel) arm(at Time)            { m.e.ArmClock(at) }
func (m *engineModel) disarm() bool           { return m.e.DisarmClock() }
func (m *engineModel) armed() bool            { return m.e.ClockArmed() }
func (m *engineModel) step() bool             { return m.e.Step() }
func (m *engineModel) runUntil(deadline Time) { m.e.RunUntil(deadline) }
func (m *engineModel) pending() int           { return m.e.Pending() }
func (m *engineModel) maxPending() int        { return m.e.MaxPending() }
func (m *engineModel) fired() uint64          { return m.e.EventsFired() }

// refEvent is one event of the reference queue.
type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	live bool
}

// refQueue is the reference: every event ever scheduled in one slice, the
// next one found by a linear scan for the least (at, seq), the slot clock
// taking its sequence number from the same counter.
type refQueue struct {
	t        Time
	seq      uint64
	events   []refEvent
	clockFn  func()
	clockAt  Time
	clockSeq uint64
	clockOn  bool
	nFired   uint64
	maxPend  int
}

func (r *refQueue) now() Time { return r.t }

func (r *refQueue) schedule(at Time, fn func()) int {
	r.events = append(r.events, refEvent{at: at, seq: r.seq, fn: fn, live: true})
	r.seq++
	r.maxPend = max(r.maxPend, r.pending())
	return len(r.events) - 1
}

func (r *refQueue) cancel(id int) bool {
	was := r.events[id].live
	r.events[id].live = false
	return was
}

func (r *refQueue) arm(at Time) {
	r.clockAt, r.clockSeq, r.clockOn = at, r.seq, true
	r.seq++
	r.maxPend = max(r.maxPend, r.pending())
}

func (r *refQueue) disarm() bool {
	was := r.clockOn
	r.clockOn = false
	return was
}

func (r *refQueue) armed() bool { return r.clockOn }

// next returns the id of the earliest pending event, -1 for the clock.
func (r *refQueue) next() (id int, at Time, ok bool) {
	id, seq := 0, uint64(0)
	if r.clockOn {
		id, at, seq, ok = -1, r.clockAt, r.clockSeq, true
	}
	for i, ev := range r.events {
		if ev.live && (!ok || ev.at < at || ev.at == at && ev.seq < seq) {
			id, at, seq, ok = i, ev.at, ev.seq, true
		}
	}
	return id, at, ok
}

func (r *refQueue) step() bool {
	id, at, ok := r.next()
	if !ok {
		return false
	}
	r.t = at
	r.nFired++
	if id < 0 {
		r.clockOn = false
		r.clockFn()
		return true
	}
	r.events[id].live = false
	r.events[id].fn()
	return true
}

func (r *refQueue) runUntil(deadline Time) {
	for {
		if _, at, ok := r.next(); !ok || at > deadline {
			break
		}
		r.step()
	}
	r.t = max(r.t, deadline)
}

func (r *refQueue) pending() int {
	n := 0
	for _, ev := range r.events {
		if ev.live {
			n++
		}
	}
	if r.clockOn {
		n++
	}
	return n
}

func (r *refQueue) maxPending() int { return r.maxPend }
func (r *refQueue) fired() uint64   { return r.nFired }

// scriptRunner runs the fuzz script on one model and logs every firing and
// every return value the script sees.
type scriptRunner struct {
	m    queueModel
	log  []string
	live []int // ids scheduled and neither fired nor cancelled, ascending
	// fired is the id of the last event that fired.
	fired int
	// clockRearms counts how many more times the clock callback re-arms
	// itself one slot on, as the contention cadence does.
	clockRearms int
}

func (d *scriptRunner) logf(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

func (d *scriptRunner) drop(id int) {
	if i, ok := slices.BinarySearch(d.live, id); ok {
		d.live = slices.Delete(d.live, i, i+1)
	}
}

func (d *scriptRunner) onClock() {
	d.logf("clock @%d", d.m.now())
	if d.clockRearms > 0 {
		d.clockRearms--
		d.m.arm(d.m.now() + 1)
	}
}

// schedule registers an event at now+delay whose callback acts by plan: a
// top-level event may schedule a child (at a later or at its own instant),
// cancel a live event or itself, or arm or disarm the clock. Children act
// by plan 0, nothing, so every script terminates.
func (d *scriptRunner) schedule(delay Time, plan byte) int {
	var id int
	id = d.m.schedule(d.m.now()+delay, func() {
		d.drop(id)
		d.fired = id
		d.logf("fire %d @%d", id, d.m.now())
		switch plan % 6 {
		case 1:
			d.logf("child %d", d.schedule(Time(plan/6%3), 0))
		case 2:
			if len(d.live) > 0 {
				victim := d.live[int(plan/6)%len(d.live)]
				d.logf("cancel %d %v", victim, d.cancel(victim))
			}
		case 3:
			d.logf("cancel self %v", d.m.cancel(id))
		case 4:
			if d.m.armed() {
				d.logf("disarm %v", d.m.disarm())
			} else {
				d.m.arm(d.m.now() + Time(plan/6%3))
			}
		case 5:
			d.logf("child %d", d.schedule(0, 0))
		}
	})
	d.live = append(d.live, id)
	return id
}

func (d *scriptRunner) cancel(id int) bool {
	ok := d.m.cancel(id)
	if ok {
		d.drop(id)
	}
	return ok
}

// op applies one top-level operation.
func (d *scriptRunner) op(code, arg byte) {
	switch code % 8 {
	case 0:
		d.logf("schedule %d", d.schedule(Time(arg&3), arg>>2))
	case 1:
		if len(d.live) > 0 {
			id := d.live[int(arg)%len(d.live)]
			d.logf("cancel %d %v", id, d.cancel(id))
		}
	case 2:
		// Step, then cancel the handle that just fired: no schedule has
		// reused its object yet, so Cancel must report false.
		d.fired = -1
		d.logf("step %v", d.m.step())
		if id := d.fired; id >= 0 {
			d.logf("cancel fired %d %v", id, d.m.cancel(id))
		}
	case 3:
		if d.m.armed() {
			d.logf("disarm %v", d.m.disarm())
		}
		d.clockRearms = int(arg / 4 % 4)
		d.m.arm(d.m.now() + Time(arg%4))
	case 4:
		d.logf("disarm %v", d.m.disarm())
	case 5:
		d.logf("step %v", d.m.step())
	case 6:
		d.m.runUntil(d.m.now() + Time(arg%8))
	case 7:
		// Cancel a live handle, then the same handle again.
		if len(d.live) > 0 {
			id := d.live[int(arg)%len(d.live)]
			d.logf("cancel %d %v", id, d.cancel(id))
			d.logf("cancel again %d %v", id, d.m.cancel(id))
		}
	}
}

func (d *scriptRunner) state() string {
	return fmt.Sprintf("now=%d pending=%d maxPending=%d fired=%d armed=%v",
		d.m.now(), d.m.pending(), d.m.maxPending(), d.m.fired(), d.m.armed())
}

// FuzzEngineOrder runs random operation sequences (schedules with tied
// instants, cancels of live, fired and cancelled handles, schedules and
// cancels from inside callbacks, and slot-clock arms and disarms) on the
// engine and on refQueue in lockstep, and requires the same firings, return
// values, Pending, MaxPending and EventsFired after every operation.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 4, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{0, 5, 0, 9, 0, 13, 1, 1, 2, 0, 2, 0, 7, 0, 3, 6, 5, 0, 6, 7})
	f.Add([]byte{3, 14, 0, 16, 0, 20, 0, 24, 6, 5, 4, 0, 2, 0, 2, 0})
	// A deep heap: 40 schedules over four instants, then cancels from its
	// middle, interleaved with steps.
	deep := make([]byte, 0, 160)
	for i := 0; i < 40; i++ {
		deep = append(deep, 0, byte(i*7))
	}
	for i := 0; i < 20; i++ {
		deep = append(deep, 1, byte(i*5+3), 5, 0)
	}
	f.Add(deep)
	// Longer pseudo-random scripts so the plain test run covers every
	// operation mix.
	for seed := uint32(1); seed <= 4; seed++ {
		script, s := make([]byte, 400), seed
		for i := range script {
			s = s*1664525 + 1013904223
			script[i] = byte(s >> 24)
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			script = script[:1024]
		}
		got := &scriptRunner{}
		eng := newEngineModel(func() { got.onClock() })
		got.m = eng
		ref := &refQueue{}
		want := &scriptRunner{m: ref}
		ref.clockFn = want.onClock
		check := func(what string) {
			t.Helper()
			if g, w := got.state(), want.state(); g != w {
				t.Fatalf("%s: engine %s, reference %s", what, g, w)
			}
			if !slices.Equal(got.log, want.log) {
				t.Fatalf("%s: engine log\n%v\nreference log\n%v", what, got.log, want.log)
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			got.op(script[i], script[i+1])
			want.op(script[i], script[i+1])
			check(fmt.Sprintf("op %d (%d, %d)", i/2, script[i], script[i+1]))
		}
		for got.m.step() {
		}
		for want.m.step() {
		}
		check("drain")
		if n := eng.e.Pending(); n != 0 {
			t.Fatalf("drained engine has %d pending", n)
		}
	})
}
