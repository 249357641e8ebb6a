package monitor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"rtmac/internal/telemetry"
)

// Perfetto streams the telemetry event stream as Chrome/Perfetto
// `trace_event` JSON (the "JSON Array Format" every trace viewer accepts):
// one track per link carrying transmission spans, a network track carrying
// swap and violation instants, and counter tracks for the per-interval
// arrival/service and debt trajectories. Open the output at ui.perfetto.dev
// or chrome://tracing.
//
// Timestamps pass through unscaled: the simulator's microseconds are exactly
// the trace_event `ts` unit.
type Perfetto struct {
	w     *bufio.Writer
	links int
	count int64
	err   error
	first bool
}

// Track numbering: link n renders as tid n+1; network-wide events share a
// dedicated track.
const (
	perfettoPid        = 1
	perfettoNetworkTid = 0
)

// traceEvent is one trace_event record. Args values are kept deterministic:
// encoding/json sorts map keys.
type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// NewPerfetto returns a sink writing a trace for a links-wide network to w.
// Call Flush when the run completes to close the JSON document.
func NewPerfetto(w io.Writer, links int) *Perfetto {
	p := &Perfetto{w: bufio.NewWriter(w), links: links, first: true}
	p.preamble()
	return p
}

func (p *Perfetto) preamble() {
	if _, err := p.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		p.err = fmt.Errorf("monitor: perfetto trace: %w", err)
		return
	}
	p.meta("process_name", perfettoNetworkTid, map[string]any{"name": "rtmac"})
	p.meta("thread_name", perfettoNetworkTid, map[string]any{"name": "network"})
	for n := 0; n < p.links; n++ {
		p.meta("thread_name", n+1, map[string]any{"name": fmt.Sprintf("link %d", n)})
	}
	// thread_sort_index keeps the network track above the links.
	p.meta("thread_sort_index", perfettoNetworkTid, map[string]any{"sort_index": -1})
}

func (p *Perfetto) meta(name string, tid int, args map[string]any) {
	p.write(traceEvent{Name: name, Ph: "M", Pid: perfettoPid, Tid: tid, Args: args})
}

func (p *Perfetto) write(ev traceEvent) {
	if p.err != nil {
		return
	}
	if !p.first {
		if err := p.w.WriteByte(','); err != nil {
			p.err = fmt.Errorf("monitor: perfetto trace: %w", err)
			return
		}
	}
	p.first = false
	b, err := json.Marshal(ev)
	if err == nil {
		_, err = p.w.Write(b)
	}
	if err != nil {
		p.err = fmt.Errorf("monitor: perfetto trace: %w", err)
		return
	}
	p.count++
}

// Emit implements telemetry.Sink.
func (p *Perfetto) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EventTx:
		dur := int64(ev.Value("dur"))
		name, cat := "data", "tx"
		switch {
		case ev.Value("outcome") == outcomeCollided:
			name, cat = "collision", "collision"
		case ev.Value("empty") == 1:
			name = "empty"
		}
		outcomes := [...]string{"delivered", "lost", "collided"}
		oc := "?"
		if o := int(ev.Value("outcome")); o >= 0 && o < len(outcomes) {
			oc = outcomes[o]
		}
		p.write(traceEvent{
			Name: name, Ph: "X", Ts: int64(ev.At) - dur, Dur: dur,
			Pid: perfettoPid, Tid: ev.Link + 1, Cat: cat,
			Args: map[string]any{"k": ev.K, "outcome": oc},
		})
	case telemetry.EventBackoff:
		p.write(traceEvent{
			Name: "backoff", Ph: "i", Ts: int64(ev.At),
			Pid: perfettoPid, Tid: ev.Link + 1, Cat: "backoff", Scope: "t",
			Args: map[string]any{"k": ev.K, "slots": ev.Value("slots")},
		})
	case telemetry.EventSwap:
		name := "swap rejected"
		if ev.Value("accepted") == 1 {
			name = "swap"
		}
		p.write(traceEvent{
			Name: name, Ph: "i", Ts: int64(ev.At),
			Pid: perfettoPid, Tid: perfettoNetworkTid, Cat: "swap", Scope: "p",
			Args: map[string]any{
				"k": ev.K, "pos": ev.Value("pos"),
				"down": ev.Value("down"), "up": ev.Value("up"),
			},
		})
	case telemetry.EventInterval:
		p.write(traceEvent{
			Name: "interval", Ph: "C", Ts: int64(ev.At),
			Pid: perfettoPid, Tid: perfettoNetworkTid,
			Args: map[string]any{
				"arrivals": ev.Value("arrivals"),
				"served":   ev.Value("served"),
				"expired":  ev.Value("expired"),
			},
		})
	case telemetry.EventDebt:
		p.write(traceEvent{
			Name: "debt", Ph: "C", Ts: int64(ev.At),
			Pid: perfettoPid, Tid: perfettoNetworkTid,
			Args: map[string]any{
				"max": ev.Value("max"), "mean": ev.Value("mean"),
				"positive": ev.Value("positive"),
			},
		})
	case telemetry.EventViolation:
		p.write(traceEvent{
			Name: "VIOLATION " + ev.Check, Ph: "i", Ts: int64(ev.At),
			Pid: perfettoPid, Tid: perfettoNetworkTid, Cat: "violation", Scope: "g",
			Args: map[string]any{"k": ev.K, "msg": ev.Msg},
		})
	}
	// prio snapshots are deliberately not rendered: N counter series per
	// interval overwhelm the viewer; the flight recorder carries them.
}

// Count returns how many trace events were written, metadata included.
func (p *Perfetto) Count() int64 { return p.count }

// Flush closes the JSON document and drains the buffer; it returns the first
// error the stream hit. The Perfetto sink must not be used after Flush.
func (p *Perfetto) Flush() error {
	if p.err != nil {
		return p.err
	}
	if _, err := p.w.WriteString("]}\n"); err != nil {
		p.err = fmt.Errorf("monitor: perfetto trace: %w", err)
		return p.err
	}
	if err := p.w.Flush(); err != nil {
		p.err = fmt.Errorf("monitor: perfetto trace: %w", err)
	}
	return p.err
}

// ValidatePerfetto parses a trace_event JSON document and returns the number
// of trace events, rejecting empty traces and events without a phase — the
// CI guard that exported traces actually load in a viewer.
func ValidatePerfetto(r io.Reader) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("monitor: perfetto trace does not parse: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("monitor: perfetto trace has no events")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			return 0, fmt.Errorf("monitor: perfetto trace event %d has no phase", i)
		}
	}
	return len(doc.TraceEvents), nil
}

var _ telemetry.Sink = (*Perfetto)(nil)
