package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"rtmac/internal/sim"
)

// Event is one structured observation from a running simulation. Events are
// what the metric registry cannot express: individual occurrences with their
// simulated timestamp and context, suitable for timeline reconstruction and
// pathwise analysis (per-interval debt trajectories, swap dynamics, packet
// outcomes).
type Event struct {
	// K is the interval index the event belongs to.
	K int64 `json:"k"`
	// At is the simulated time of the event in microseconds.
	At sim.Time `json:"t"`
	// Link is the link the event concerns, or -1 for network-wide events.
	Link int `json:"link"`
	// Kind names the event type (e.g. "tx", "interval", "swap", "debt").
	Kind string `json:"kind"`
	// Fields carries the kind-specific numeric payload. Encoders write its
	// keys in sorted order, which keeps the JSONL stream byte-for-byte
	// deterministic for a fixed seed.
	Fields map[string]float64 `json:"f,omitempty"`
	// Check names the invariant checker that produced a "violation" event;
	// empty for every other kind.
	Check string `json:"check,omitempty"`
	// Msg is a human-readable detail line, only set on "violation" events.
	Msg string `json:"msg,omitempty"`
}

// Canonical event kinds emitted by the simulator's instrumentation points.
// The payload schemas are documented in docs/OBSERVABILITY.md.
const (
	// EventTx is one completed transmission: At is the end instant, Link
	// the transmitter; fields dur (airtime µs), empty (0/1), outcome
	// (medium.Outcome code).
	EventTx = "tx"
	// EventInterval summarizes one completed interval (Link = -1): fields
	// arrivals, served, pending counts plus engine progress.
	EventInterval = "interval"
	// EventSwap is one DP priority-swap decision: fields pos (priority
	// position), down, up (link ids), accepted (0/1).
	EventSwap = "swap"
	// EventDebt summarizes the debt vector after an interval's Eq. 1 update
	// (Link = -1): fields max, mean, positive (links with positive debt).
	EventDebt = "debt"
	// EventBackoff is one initial backoff counter handed to the contention
	// coordinator at an interval's start: field slots.
	EventBackoff = "backoff"
	// EventPriority snapshots the DP priority assignment σ(k) at an
	// interval's end, after swaps committed (Link = -1): field l<n> holds
	// link n's priority index (1 highest). Only priority-carrying protocols
	// (the DP family) emit it.
	EventPriority = "prio"
	// EventViolation is an invariant breach reported by the runtime monitor
	// (internal/monitor): Check names the checker, Msg the detail, Fields
	// the checker-specific payload.
	EventViolation = "violation"
	// EventConflict records one undirected conflict-graph edge at the start
	// of a run (K = 0, At = 0): Link is the lower endpoint, field peer the
	// higher. Emitted only when the medium carries a non-complete conflict
	// graph, so offline auditors (monitor.InferConfig) can reconstruct the
	// interference topology; fully-interfering runs emit none and are read as
	// the complete graph.
	EventConflict = "conflict"
	// EventStall is a slot-budget watchdog overrun (internal/health): the
	// wall-clock time spent simulating interval K exceeded the configured
	// budget (Link = -1). Fields: budget_ns, elapsed_ns, overrun_ns,
	// gc_pause_ns and gc_pauses (GC activity in the attribution window),
	// sched_p99_ns, and cause (0 user code, 1 GC pause, 2 sched delay).
	// Unlike every other kind it reports wall-clock truth, so its presence
	// is inherently non-deterministic across runs.
	EventStall = "stall"
	// EventAlert is an SLO conformance transition reported by the watch
	// engine (internal/watch): Check names the detector, Msg the evidence
	// line, Link the subject (-1 for network-wide). Fields: severity
	// (1 warning, 2 critical), state (1 firing, 0 resolved), value,
	// threshold, window (intervals of evidence), scope (0 link,
	// 1 neighborhood, 2 network). Alerts are deterministic functions of the
	// deterministic event stream, so fixed-seed runs alert identically.
	EventAlert = "alert"
)

// Sink consumes events. Emitters reuse one scratch Fields map per emission
// site, so an implementation must not retain ev.Fields beyond the call. A
// sink that keeps events copies their key/value pairs into storage it owns,
// as the flight recorder does into its per-interval arenas.
type Sink interface {
	Emit(ev Event)
}

// MultiSink fans one event out to several sinks in order.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// JSONLOption configures a JSONL sink.
type JSONLOption func(*JSONL)

// Sample keeps only one event in every `every` of the given kind (the first,
// then every every-th after). Sampling keeps long runs bounded: a 10⁶-interval
// run emits millions of "tx" events but only needs a thinned subsample for
// timeline inspection.
func Sample(kind string, every int) JSONLOption {
	return func(j *JSONL) {
		if every > 1 {
			j.sample[kind] = every
		}
	}
}

// Only restricts the stream to the listed kinds; all other kinds are
// dropped. Without it every kind passes.
func Only(kinds ...string) JSONLOption {
	return func(j *JSONL) {
		if j.only == nil {
			j.only = make(map[string]bool, len(kinds))
		}
		for _, k := range kinds {
			j.only[k] = true
		}
	}
}

// JSONL streams events to an io.Writer, one JSON object per line. Encoding
// errors are sticky: the first one is retained and all later events are
// dropped, so a failed disk write cannot silently truncate mid-record.
type JSONL struct {
	w *bufio.Writer
	// line is the encoder's scratch, reused for every event.
	line   []byte
	sample map[string]int
	seen   map[string]int
	only   map[string]bool
	count  int64
	err    error
}

// NewJSONL returns a sink writing JSON Lines to w. Call Flush when done.
// The first line written is the stream's schema header (EventStreamSchema);
// DecodeJSONL and the rundiff tooling recognize it and refuse streams from
// incompatible layouts, while still accepting headerless legacy streams.
func NewJSONL(w io.Writer, opts ...JSONLOption) *JSONL {
	bw := bufio.NewWriter(w)
	j := &JSONL{
		w: bw,
		// Sized for every simulator event at N <= 16, so steady-state
		// emission never grows it.
		line:   make([]byte, 0, 512),
		sample: make(map[string]int),
		seen:   make(map[string]int),
	}
	for _, opt := range opts {
		opt(j)
	}
	header := StreamHeader{Schema: EventStreamSchema, Version: EventStreamVersion}
	if _, err := bw.Write(header.MarshalLine()); err != nil {
		j.err = fmt.Errorf("telemetry: event stream: %w", err)
	}
	return j
}

// Emit implements Sink.
func (j *JSONL) Emit(ev Event) {
	if j.err != nil {
		return
	}
	if j.only != nil && !j.only[ev.Kind] {
		return
	}
	if every, ok := j.sample[ev.Kind]; ok {
		n := j.seen[ev.Kind]
		j.seen[ev.Kind] = n + 1
		if n%every != 0 {
			return
		}
	}
	var err error
	if j.line, err = AppendJSON(j.line[:0], ev); err == nil {
		_, err = j.w.Write(j.line)
	}
	if err != nil {
		j.err = fmt.Errorf("telemetry: event stream: %w", err)
		return
	}
	j.count++
}

// Count returns how many events were written (after filtering/sampling).
func (j *JSONL) Count() int64 { return j.count }

// Flush drains the buffer and returns the first error encountered by the
// stream, if any.
func (j *JSONL) Flush() error {
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = fmt.Errorf("telemetry: event stream: %w", err)
	}
	return j.err
}

// DecodeJSONL parses a JSONL event stream back into events — the read side
// of the round trip, used by tests and analysis tooling. A leading schema
// header line (written by NewJSONL) is validated and skipped; headerless
// legacy streams decode as before. A header carrying a different schema or
// an unsupported version is an error, not a zero-valued event.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	first := true
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: decode event %d: %w", len(out), err)
		}
		if first {
			first = false
			if h, ok := ParseHeader(raw); ok {
				if err := h.Check(EventStreamSchema, EventStreamVersion); err != nil {
					return nil, err
				}
				continue
			}
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return out, fmt.Errorf("telemetry: decode event %d: %w", len(out), err)
		}
		out = append(out, ev)
	}
}
