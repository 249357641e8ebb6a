package monitor

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
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
// arena of their fields' key/value pairs; when a new interval evicts the
// oldest, that bucket is emptied and reused, so once every bucket has held
// its largest interval, recording copies an event without allocating. Field
// maps are rebuilt only by Events, the cold dump path. A recycled map would
// grow to the largest key set it ever held; the arena holds exactly the
// pairs recorded.
type FlightRecorder struct {
	capacity int
	// ring[(head+i) % capacity] is the i-th oldest of the n retained
	// intervals, in order of first appearance (not of K).
	ring    []bucket
	head, n int
	dropped int64
	total   int64
	// pinned holds run-scoped events exempt from windowed eviction: the
	// conflict-graph edges emitted once at k=0. A dump of intervals
	// [k, k+64] without them would audit a spatial-reuse run against the
	// complete graph, so they are retained forever and written first.
	pinned bucket
	// order remembers each kind's field keys, so that add copies pairs by
	// lookup instead of iterating each map.
	order telemetry.FieldOrder
}

// bucket is one interval's recorded events, in emission order.
type bucket struct {
	k      int64
	events []recorded
	fields []field
}

// recorded is one event with its Fields moved into the bucket's arena at
// fields[lo : lo+n]; n is -1 when the event's Fields map was nil.
type recorded struct {
	ev    telemetry.Event
	lo, n int
}

type field struct {
	key   string
	value float64
}

func (b *bucket) add(ev telemetry.Event, order *telemetry.FieldOrder) {
	rec := recorded{lo: len(b.fields), n: -1}
	if ev.Fields != nil {
		rec.n = len(ev.Fields)
		b.fields = appendPairs(b.fields, ev, order)
		ev.Fields = nil
	}
	rec.ev = ev
	b.events = append(b.events, rec)
}

// appendPairs appends ev's key/value pairs to dst in the key order that
// order remembers for ev.Kind. When that order does not match the map's key
// set, it copies the pairs in map order and remembers the new key set.
func appendPairs(dst []field, ev telemetry.Event, order *telemetry.FieldOrder) []field {
	mark := len(dst)
	if keys := order.Cached(ev.Kind, len(ev.Fields)); keys != nil {
		for _, k := range keys {
			v, ok := ev.Fields[k]
			if !ok {
				break
			}
			dst = append(dst, field{k, v})
		}
		if len(dst)-mark == len(keys) {
			return dst
		}
		dst = dst[:mark]
	}
	for k, v := range ev.Fields {
		dst = append(dst, field{k, v})
	}
	order.Remember(ev.Kind, ev.Fields)
	return dst
}

// reset empties the bucket for interval k, keeping its storage.
func (b *bucket) reset(k int64) {
	b.k = k
	b.events = b.events[:0]
	b.fields = b.fields[:0]
}

// appendEvents appends the bucket's events to out with freshly built Fields
// maps.
func (b *bucket) appendEvents(out []telemetry.Event) []telemetry.Event {
	for _, rec := range b.events {
		ev := rec.ev
		if rec.n >= 0 {
			ev.Fields = make(map[string]float64, rec.n)
			for _, f := range b.fields[rec.lo : rec.lo+rec.n] {
				ev.Fields[f.key] = f.value
			}
		}
		out = append(out, ev)
	}
	return out
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
// are dropped. Field values are copied into the recorder's arena (the Sink
// contract does not grant ownership of the map).
func (r *FlightRecorder) Emit(ev telemetry.Event) {
	r.total++
	if ev.Kind == telemetry.EventConflict {
		r.pinned.add(ev, &r.order)
		return
	}
	r.bucketFor(ev.K).add(ev, &r.order)
}

// bucketFor returns interval k's bucket. An interval not retained gets a new
// bucket, which evicts the oldest interval when the ring is full.
func (r *FlightRecorder) bucketFor(k int64) *bucket {
	// Newest first: almost every event belongs to the latest interval.
	for i := r.n - 1; i >= 0; i-- {
		if b := &r.ring[(r.head+i)%r.capacity]; b.k == k {
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
	b.reset(k)
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
// order within each interval. The slice and every Fields map are new; none
// aliases the recorder's storage.
func (r *FlightRecorder) Events() []telemetry.Event {
	retained := make([]*bucket, r.n)
	for i := range retained {
		retained[i] = &r.ring[(r.head+i)%r.capacity]
	}
	slices.SortFunc(retained, func(a, b *bucket) int { return cmp.Compare(a.k, b.k) })
	out := r.pinned.appendEvents(nil)
	for _, b := range retained {
		out = b.appendEvents(out)
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
		start, end := ev.At-sim.Time(ev.Fields["dur"]), ev.At
		if ev.Kind != telemetry.EventTx || end <= from || start >= to {
			continue
		}
		glyph := byte('D')
		switch outcome := medium.Outcome(ev.Fields["outcome"]); {
		case outcome == medium.Collided:
			glyph = 'C'
		case ev.Fields["empty"] != 0:
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
		if ev.Fields["empty"] == 1 {
			what = "empty"
		}
		outcome := [...]string{"delivered", "lost", "collided"}
		oc := "?"
		if o := int(ev.Fields["outcome"]); o >= 0 && o < len(outcome) {
			oc = outcome[o]
		}
		return fmt.Sprintf("t=%-8v link=%-3d tx %s %vµs %s",
			ev.At, ev.Link, what, ev.Fields["dur"], oc)
	case telemetry.EventBackoff:
		return fmt.Sprintf("t=%-8v link=%-3d backoff %v slots", ev.At, ev.Link, ev.Fields["slots"])
	case telemetry.EventSwap:
		verdict := "rejected"
		if ev.Fields["accepted"] == 1 {
			verdict = "accepted"
		}
		return fmt.Sprintf("t=%-8v swap pos=%v links %v<->%v %s",
			ev.At, ev.Fields["pos"], ev.Fields["down"], ev.Fields["up"], verdict)
	case telemetry.EventDebt:
		return fmt.Sprintf("t=%-8v debt max=%v mean=%v positive=%v",
			ev.At, ev.Fields["max"], ev.Fields["mean"], ev.Fields["positive"])
	case telemetry.EventInterval:
		return fmt.Sprintf("t=%-8v interval arrivals=%v served=%v expired=%v",
			ev.At, ev.Fields["arrivals"], ev.Fields["served"], ev.Fields["expired"])
	case telemetry.EventViolation:
		return fmt.Sprintf("t=%-8v VIOLATION [%s] %s", ev.At, ev.Check, ev.Msg)
	default:
		keys := make([]string, 0, len(ev.Fields))
		for k := range ev.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		fmt.Fprintf(&b, "t=%-8v link=%-3d %s", ev.At, ev.Link, ev.Kind)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, ev.Fields[k])
		}
		return b.String()
	}
}

var _ telemetry.Sink = (*FlightRecorder)(nil)
