package sim

import "fmt"

// Timer is a handle to a scheduled event. It can be cancelled as long as the
// event has not yet fired.
//
// Hot-path memory discipline: the engine recycles Timer objects through an
// internal free list, so a handle is only valid until its event fires or is
// cancelled. After either, drop the reference — the engine may reuse the
// object for a later ScheduleAt, at which point the old handle silently
// describes someone else's event. Every holder in this repository follows
// the pattern "nil the field at the top of the callback / right after
// Cancel" (see docs/PERFORMANCE.md).
type Timer struct {
	at        Time
	seq       uint64
	fn        func()
	index     int // position in the heap, -1 once removed
	cancelled bool
}

// At returns the instant the timer is scheduled to fire.
func (t *Timer) At() Time { return t.at }

// Cancelled reports whether Cancel was called before the timer fired.
func (t *Timer) Cancelled() bool { return t.cancelled }

// eventQueue is a binary min-heap ordered by (at, seq) so that events
// scheduled for the same instant fire in FIFO order. Deterministic ordering
// of simultaneous events is essential for reproducible runs; seq is unique,
// so the order is total and the heap's layout never shows in a run. The
// sifts compare and move *Timer directly, with no interface dispatch, and
// keep each Timer's index current for Cancel.
type eventQueue []*Timer

// before reports whether a fires before b.
func before(a, b *Timer) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds t to the heap.
func (q *eventQueue) push(t *Timer) {
	*q = append(*q, t)
	q.up(len(*q)-1, t)
}

// pop removes and returns the earliest timer.
func (q *eventQueue) pop() *Timer {
	h := *q
	n := len(h) - 1
	t, last := h[0], h[n]
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.down(0, last)
	}
	t.index = -1
	return t
}

// remove deletes the timer at position i, marking it index -1.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	t, last := h[i], h[n]
	h[n] = nil
	*q = h[:n]
	if i < n && !q.down(i, last) {
		q.up(i, last)
	}
	t.index = -1
}

// up places t at position i, or at the first ancestor slot whose parent
// fires before it, moving the ancestors it passes down one level.
func (q eventQueue) up(i int, t *Timer) {
	for i > 0 {
		p := (i - 1) / 2
		parent := q[p]
		if !before(t, parent) {
			break
		}
		q[i], parent.index = parent, i
		i = p
	}
	q[i], t.index = t, i
}

// down places t at position i, or at the first descendant slot whose
// children fire after it, moving the children it passes up one level. It
// reports whether t moved below i.
func (q eventQueue) down(i int, t *Timer) bool {
	start, n := i, len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		child := q[c]
		if r := c + 1; r < n && before(q[r], child) {
			c, child = r, q[r]
		}
		if !before(child, t) {
			break
		}
		q[i], child.index = child, i
		i = c
	}
	q[i], t.index = t, i
	return i > start
}

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use; run one engine per goroutine.
type Engine struct {
	now        Time
	queue      eventQueue
	seq        uint64
	seed       uint64
	streams    map[string]*RNG
	fired      uint64
	maxPending int

	// free recycles fired and cancelled Timer objects so the steady-state
	// event loop allocates nothing.
	free []*Timer

	// The slot clock is a single recurring timer kept out of the event heap:
	// the fixed-slot contention cadence re-arms one timer per idle slot, and
	// pushing/popping it through the heap dominated heap traffic. The clock
	// participates in the same (at, seq) total order as heap events — it is
	// assigned a sequence number from the shared counter at every arm — so
	// runs are byte-identical to the heap-scheduled equivalent.
	clockFn  func()
	clockAt  Time
	clockSeq uint64
	clockOn  bool
}

// NewEngine returns an engine whose clock starts at zero. All randomness
// drawn through RNG streams is derived deterministically from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		seed:    seed,
		streams: make(map[string]*RNG),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() uint64 { return e.seed }

// EventsFired returns the number of events executed so far, a cheap progress
// and performance counter.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled, the armed slot
// clock included.
func (e *Engine) Pending() int {
	n := len(e.queue)
	if e.clockOn {
		n++
	}
	return n
}

// MaxPending returns the high-water mark of the event queue depth — the
// telemetry gauge that shows how much simultaneous state a protocol keeps
// scheduled, and the first number to look at when a run's memory or heap-
// sift cost surprises.
func (e *Engine) MaxPending() int { return e.maxPending }

// ScheduleAt registers fn to run at instant at. Scheduling in the past
// panics: it always indicates a protocol bug, never a recoverable condition.
//
// The returned handle is valid until the event fires or is cancelled; the
// engine then recycles the Timer object (see the Timer doc comment).
func (e *Engine) ScheduleAt(at Time, fn func()) *Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil function")
	}
	var t *Timer
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		t.at, t.seq, t.fn, t.cancelled = at, e.seq, fn, false
	} else {
		t = &Timer{at: at, seq: e.seq, fn: fn}
	}
	e.seq++
	e.queue.push(t)
	if p := e.Pending(); p > e.maxPending {
		e.maxPending = p
	}
	return t
}

// After registers fn to run d after the current instant.
func (e *Engine) After(d Duration, fn func()) *Timer {
	return e.ScheduleAt(e.now+d, fn)
}

// Cancel removes a scheduled timer. It returns false if the timer already
// fired or was already cancelled. A cancelled handle must be dropped: the
// engine recycles the object.
func (e *Engine) Cancel(t *Timer) bool {
	if t == nil || t.cancelled || t.index < 0 {
		return false
	}
	t.cancelled = true
	e.queue.remove(t.index)
	t.fn = nil
	e.free = append(e.free, t)
	return true
}

// recycle returns a fired timer to the free list.
func (e *Engine) recycle(t *Timer) {
	t.fn = nil
	e.free = append(e.free, t)
}

// SetClockFunc registers the slot-clock callback. The clock is a single
// recurring timer held outside the event heap for the fixed-slot contention
// cadence; one owner per engine (the contention coordinator). Replacing the
// callback while the clock is armed panics.
func (e *Engine) SetClockFunc(fn func()) {
	if e.clockOn {
		panic("sim: SetClockFunc while the clock is armed")
	}
	e.clockFn = fn
}

// ArmClock schedules the slot-clock callback for instant at. Like
// ScheduleAt, arming in the past panics; arming while already armed panics
// (disarm first — the clock models exactly one pending boundary).
func (e *Engine) ArmClock(at Time) {
	if e.clockFn == nil {
		panic("sim: ArmClock without SetClockFunc")
	}
	if e.clockOn {
		panic("sim: ArmClock while already armed")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: arm clock at %v before now %v", at, e.now))
	}
	e.clockAt = at
	e.clockSeq = e.seq
	e.seq++
	e.clockOn = true
	if p := e.Pending(); p > e.maxPending {
		e.maxPending = p
	}
}

// DisarmClock cancels the pending slot-clock callback, reporting whether one
// was armed.
func (e *Engine) DisarmClock() bool {
	was := e.clockOn
	e.clockOn = false
	return was
}

// ClockArmed reports whether the slot clock has a pending callback.
func (e *Engine) ClockArmed() bool { return e.clockOn }

// clockNext reports whether the armed slot clock precedes the earliest heap
// event in the engine's (at, seq) total order.
func (e *Engine) clockNext() bool {
	if !e.clockOn {
		return false
	}
	if len(e.queue) == 0 {
		return true
	}
	t := e.queue[0]
	if e.clockAt != t.at {
		return e.clockAt < t.at
	}
	return e.clockSeq < t.seq
}

// nextAt returns the firing instant of the earliest pending event (heap or
// slot clock), and whether any event is pending.
func (e *Engine) nextAt() (Time, bool) {
	if e.clockNext() {
		return e.clockAt, true
	}
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Step executes the single earliest pending event. It reports whether an
// event was available.
func (e *Engine) Step() bool {
	if e.clockNext() {
		e.now = e.clockAt
		e.clockOn = false
		e.fired++
		e.clockFn()
		return true
	}
	if len(e.queue) == 0 {
		return false
	}
	t := e.queue.pop()
	e.now = t.at
	e.fired++
	fn := t.fn
	fn()
	e.recycle(t)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with firing times not later than deadline, then
// advances the clock to deadline. Events scheduled after deadline remain
// pending.
func (e *Engine) RunUntil(deadline Time) {
	for {
		at, ok := e.nextAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunIntervals is the batched fixed-cadence advance the MAC layer's interval
// loop uses: for each k in [0, count) it invokes begin(k) at the interval's
// start instant, drains every event with a firing time inside the interval,
// advances the clock to the interval's end, and invokes end(k). A non-nil
// error from either callback aborts the batch. Hoisting the loop into the
// engine keeps the per-interval advance a single call with no intermediate
// deadline bookkeeping in the caller.
func (e *Engine) RunIntervals(interval Duration, count int, begin, end func(k int) error) error {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	for k := 0; k < count; k++ {
		deadline := e.now + interval
		if begin != nil {
			if err := begin(k); err != nil {
				return err
			}
		}
		e.RunUntil(deadline)
		if end != nil {
			if err := end(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// RNG returns the named deterministic random stream, creating it on first
// use. Streams with distinct names are statistically independent, and a
// stream's sequence depends only on (engine seed, name), never on the order
// in which other streams are used.
func (e *Engine) RNG(name string) *RNG {
	if r, ok := e.streams[name]; ok {
		return r
	}
	r := NewRNG(deriveSeed(e.seed, name))
	e.streams[name] = r
	return r
}
