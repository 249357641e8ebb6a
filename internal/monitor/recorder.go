package monitor

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// FlightRecorder retains the raw event stream of the most recent K intervals
// in a bounded ring, crash-recorder style: it costs a bounded amount of
// memory no matter how long the run is, and on a violation (or on demand) it
// dumps exactly the window of history that explains what happened.
//
// The ring holds K interval buckets. A bucket keeps its events and a flat
// slice of their payload values; when a new interval evicts the oldest, that
// bucket is emptied and reused. A reused bucket whose storage is smaller
// than the largest interval recorded so far is given storage for that
// interval plus a quarter once, rather than growing step by step, so after
// the first interval at the run's largest size recording copies an event
// without allocating. Payloads are rebuilt only by Events, the cold dump
// path.
type FlightRecorder struct {
	capacity int
	// ring[(head+i) % capacity] is the i-th oldest of the n retained
	// intervals, in order of first appearance (not of K).
	ring    []bucket
	head, n int
	// last is the bucket bucketFor returned most recently.
	last    *bucket
	dropped int64
	total   int64
	// pinned holds run-scoped events exempt from windowed eviction: the
	// conflict-graph edges emitted once at k=0. A dump of intervals
	// [k, k+64] without them would audit a spatial-reuse run against the
	// complete graph, so they are retained forever and written first.
	pinned bucket
	// maxEvents and maxValues are the most events and payload values one
	// bucket has held.
	maxEvents, maxValues int
}

// bucket is one interval's recorded events, in emission order.
type bucket struct {
	k      int64
	events []recorded
	values []float64
}

// recorded is one event without its payload, whose values are copied to
// the bucket's values[lo : lo+schema.Len()]; schema is nil when the event
// had no payload. A decoded event's Fields map is dropped, not kept.
type recorded struct {
	ev     telemetry.Event
	schema *telemetry.Schema
	lo     int
}

// add appends ev, its payload values copied into the bucket.
func (b *bucket) add(ev *telemetry.Event) {
	b.events = append(b.events, recorded{ev: *ev, lo: len(b.values)})
	rec := &b.events[len(b.events)-1]
	rec.ev.Payload, rec.ev.Fields = nil, nil
	if p := ev.Payload; p != nil {
		rec.schema = p.Schema
		b.values = append(b.values, p.Values...)
	}
}

// reset empties the bucket for interval k, keeping its storage unless it is
// smaller than the largest interval recorded so far.
func (b *bucket) reset(k int64, maxEvents, maxValues int) {
	b.k = k
	if cap(b.events) < maxEvents {
		b.events = make([]recorded, 0, maxEvents+maxEvents/4)
	}
	if cap(b.values) < maxValues {
		b.values = make([]float64, 0, maxValues+maxValues/4)
	}
	b.events = b.events[:0]
	b.values = b.values[:0]
}

// appendEvents appends the bucket's events to out, their payloads taken in
// order from payloads and their values copied into values, and returns the
// three slices advanced past what it used.
func (b *bucket) appendEvents(out []telemetry.Event, payloads []telemetry.Payload, values []float64) ([]telemetry.Event, []telemetry.Payload, []float64) {
	for _, rec := range b.events {
		ev := rec.ev
		if rec.schema != nil {
			n := rec.schema.Len()
			copy(values, b.values[rec.lo:rec.lo+n])
			payloads[0] = telemetry.Payload{Schema: rec.schema, Values: values[:n:n]}
			ev.Payload = &payloads[0]
			payloads, values = payloads[1:], values[n:]
		}
		out = append(out, ev)
	}
	return out, payloads, values
}

// NewFlightRecorder returns a recorder keeping the most recent `intervals`
// intervals of events.
func NewFlightRecorder(intervals int) (*FlightRecorder, error) {
	if intervals <= 0 {
		return nil, fmt.Errorf("monitor: flight recorder capacity %d must be positive", intervals)
	}
	return &FlightRecorder{
		capacity: intervals,
		ring:     make([]bucket, intervals),
	}, nil
}

// Emit implements telemetry.Sink. Events are grouped by interval index; when
// a new interval appears beyond the capacity, the oldest interval's events
// are dropped. Payload values are copied into the recorder's buckets (the
// Sink contract does not grant ownership of the payload).
func (r *FlightRecorder) Emit(ev telemetry.Event) {
	r.total++
	if ev.Kind == telemetry.EventConflict {
		r.pinned.add(&ev)
		return
	}
	b := r.bucketFor(ev.K)
	b.add(&ev)
	r.maxEvents = max(r.maxEvents, len(b.events))
	r.maxValues = max(r.maxValues, len(b.values))
}

// bucketFor returns interval k's bucket. An interval not retained gets a new
// bucket, which evicts the oldest interval when the ring is full.
func (r *FlightRecorder) bucketFor(k int64) *bucket {
	// Almost every event belongs to the interval of the one before it; a
	// bucket always holds the interval it was last reset for.
	if r.last != nil && r.last.k == k {
		return r.last
	}
	// Newest first.
	for i := r.n - 1; i >= 0; i-- {
		if b := &r.ring[(r.head+i)%r.capacity]; b.k == k {
			r.last = b
			return b
		}
	}
	var b *bucket
	if r.n < r.capacity {
		b = &r.ring[(r.head+r.n)%r.capacity]
		r.n++
	} else {
		b = &r.ring[r.head]
		r.head = (r.head + 1) % r.capacity
		r.dropped += int64(len(b.events))
	}
	b.reset(k, r.maxEvents, r.maxValues)
	r.last = b
	return b
}

// Total returns how many events were observed, including dropped ones.
func (r *FlightRecorder) Total() int64 { return r.total }

// Dropped returns how many events fell out of the retention window.
func (r *FlightRecorder) Dropped() int64 { return r.dropped }

// Intervals returns how many intervals are currently retained.
func (r *FlightRecorder) Intervals() int { return r.n }

// Events returns the retained events: pinned run-scoped events (the conflict
// topology) first, then the windowed intervals in ascending K, in emission
// order within each interval. The slice and every payload are new (the
// schemas are shared); none aliases the recorder's storage.
func (r *FlightRecorder) Events() []telemetry.Event {
	retained := make([]*bucket, 0, r.n+1)
	retained = append(retained, &r.pinned)
	for i := 0; i < r.n; i++ {
		retained = append(retained, &r.ring[(r.head+i)%r.capacity])
	}
	slices.SortFunc(retained[1:], func(a, b *bucket) int { return cmp.Compare(a.k, b.k) })
	var events, values int
	for _, b := range retained {
		events += len(b.events)
		values += len(b.values)
	}
	out := make([]telemetry.Event, 0, events)
	payloads := make([]telemetry.Payload, events)
	vals := make([]float64, values)
	for _, b := range retained {
		out, payloads, vals = b.appendEvents(out, payloads, vals)
	}
	return out
}

// WriteJSONL dumps the retained window as JSON Lines — the same format and
// encoder the live event stream uses, so each dumped line equals the stream's
// line for that event and `rtmacsim -check` audits a dump directly.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	var line []byte
	for _, ev := range r.Events() {
		var err error
		if line, err = telemetry.AppendJSON(line[:0], ev); err == nil {
			_, err = w.Write(line)
		}
		if err != nil {
			return fmt.Errorf("monitor: flight recorder dump: %w", err)
		}
	}
	return nil
}

// WriteTimeline renders the retained window as a human-readable per-interval
// log, one event per line, for post-mortem reading without tooling.
func (r *FlightRecorder) WriteTimeline(w io.Writer) error {
	events := r.Events()
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: no events retained")
		return err
	}
	var curK int64 = -1 << 62
	for _, ev := range events {
		if ev.K != curK {
			curK = ev.K
			if _, err := fmt.Fprintf(w, "== interval %d ==\n", curK); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  %s\n", formatEvent(ev)); err != nil {
			return err
		}
	}
	if r.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events beyond the %d-interval window were dropped)\n",
			r.dropped, r.capacity); err != nil {
			return err
		}
	}
	return nil
}

// RenderTimeline draws the tx events that overlap [from, to) as one ASCII
// lane per link, with one lane for every link up to the highest that
// transmitted anywhere in events: each column is (to-from)/width of
// simulated time, 'D' marks a delivered data exchange, 'x' a channel loss,
// 'C' a collision, 'e' an empty frame, and '.' idle time. Events of other
// kinds are ignored.
func RenderTimeline(w io.Writer, events []telemetry.Event, from, to sim.Time, width int) error {
	if to <= from {
		return fmt.Errorf("monitor: empty window [%v, %v)", from, to)
	}
	if width < 10 {
		width = 80
	}
	maxLink := -1
	for _, ev := range events {
		if ev.Kind == telemetry.EventTx && ev.Link > maxLink {
			maxLink = ev.Link
		}
	}
	if maxLink < 0 {
		return fmt.Errorf("monitor: no transmissions to render")
	}
	lanes := make([][]byte, maxLink+1)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	span := float64(to - from)
	for _, ev := range events {
		start, end := ev.At-sim.Time(ev.Value("dur")), ev.At
		if ev.Kind != telemetry.EventTx || end <= from || start >= to {
			continue
		}
		glyph := byte('D')
		switch outcome := medium.Outcome(ev.Value("outcome")); {
		case outcome == medium.Collided:
			glyph = 'C'
		case ev.Value("empty") != 0:
			glyph = 'e'
		case outcome == medium.Lost:
			glyph = 'x'
		}
		lo := int(float64(start-from) / span * float64(width))
		hi := int(float64(end-from) / span * float64(width))
		if lo < 0 {
			lo = 0
		}
		if hi >= width {
			hi = width - 1
		}
		for c := lo; c <= hi; c++ {
			lanes[ev.Link][c] = glyph
		}
	}
	fmt.Fprintf(w, "timeline %v .. %v (one column = %.1fus)\n", from, to, span/float64(width))
	for link, lane := range lanes {
		if _, err := fmt.Fprintf(w, "link %2d |%s|\n", link, lane); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "legend: D delivered, x lost, C collided, e empty frame, . idle")
	return err
}

// formatEvent renders one event as a timeline line, with kind-aware phrasing
// for the canonical kinds and a sorted field dump for everything else.
func formatEvent(ev telemetry.Event) string {
	switch ev.Kind {
	case telemetry.EventTx:
		what := "data"
		if ev.Value("empty") == 1 {
			what = "empty"
		}
		outcome := [...]string{"delivered", "lost", "collided"}
		oc := "?"
		if o := int(ev.Value("outcome")); o >= 0 && o < len(outcome) {
			oc = outcome[o]
		}
		return fmt.Sprintf("t=%-8v link=%-3d tx %s %vµs %s",
			ev.At, ev.Link, what, ev.Value("dur"), oc)
	case telemetry.EventBackoff:
		return fmt.Sprintf("t=%-8v link=%-3d backoff %v slots", ev.At, ev.Link, ev.Value("slots"))
	case telemetry.EventSwap:
		verdict := "rejected"
		if ev.Value("accepted") == 1 {
			verdict = "accepted"
		}
		return fmt.Sprintf("t=%-8v swap pos=%v links %v<->%v %s",
			ev.At, ev.Value("pos"), ev.Value("down"), ev.Value("up"), verdict)
	case telemetry.EventDebt:
		return fmt.Sprintf("t=%-8v debt max=%v mean=%v positive=%v",
			ev.At, ev.Value("max"), ev.Value("mean"), ev.Value("positive"))
	case telemetry.EventInterval:
		return fmt.Sprintf("t=%-8v interval arrivals=%v served=%v expired=%v",
			ev.At, ev.Value("arrivals"), ev.Value("served"), ev.Value("expired"))
	case telemetry.EventViolation:
		return fmt.Sprintf("t=%-8v VIOLATION [%s] %s", ev.At, ev.Check, ev.Msg)
	default:
		var b strings.Builder
		fmt.Fprintf(&b, "t=%-8v link=%-3d %s", ev.At, ev.Link, ev.Kind)
		if p := ev.Payload; p != nil {
			for i, v := range p.Values {
				fmt.Fprintf(&b, " %s=%v", p.Schema.Name(i), v)
			}
		}
		return b.String()
	}
}

var _ telemetry.Sink = (*FlightRecorder)(nil)
