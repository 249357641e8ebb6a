package rundiff

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"rtmac/internal/telemetry"
)

// EventDiff is the outcome of comparing two event streams.
type EventDiff struct {
	// Equal is true when the data lines of both streams are byte-identical
	// (headers excluded: a headerless legacy stream equals a headered one
	// with the same events).
	Equal bool `json:"equal"`
	// Events counts the data lines that compared equal before the divergence
	// (or the whole stream when Equal).
	Events int64 `json:"events"`
	// Divergence describes the first difference; nil when Equal.
	Divergence *EventDivergence `json:"divergence,omitempty"`
}

// EventDivergence pinpoints the first divergent event with full context.
type EventDivergence struct {
	// Index is the 0-based data-line index where the streams first differ.
	Index int64 `json:"index"`
	// LineA / LineB are the 1-based raw line numbers on each side
	// (header-aware, so they match what an editor shows).
	LineA int64 `json:"line_a"`
	LineB int64 `json:"line_b"`
	// A / B are the decoded events; nil when that side ended early or its
	// line did not decode.
	A *telemetry.Event `json:"a,omitempty"`
	B *telemetry.Event `json:"b,omitempty"`
	// RawA / RawB are the raw divergent lines ("" when that side ended).
	RawA string `json:"raw_a,omitempty"`
	RawB string `json:"raw_b,omitempty"`
	// Fields lists payload fields that differ, sorted by name (only when
	// both sides decoded and agree on (k, t, link, kind)).
	Fields []FieldDelta `json:"fields,omitempty"`
	// ContextA / ContextB hold up to Options.Window raw lines preceding the
	// divergence on each side.
	ContextA []string `json:"context_a,omitempty"`
	ContextB []string `json:"context_b,omitempty"`
}

// K returns the interval of the first divergent event (from side A when
// present, else B, else -1).
func (d *EventDivergence) K() int64 {
	switch {
	case d.A != nil:
		return d.A.K
	case d.B != nil:
		return d.B.K
	}
	return -1
}

// Link returns the link of the first divergent event (A side preferred, -1
// when neither side decodes).
func (d *EventDivergence) Link() int {
	switch {
	case d.A != nil:
		return d.A.Link
	case d.B != nil:
		return d.B.Link
	}
	return -1
}

// Kind returns the kind of the first divergent event (A side preferred).
func (d *EventDivergence) Kind() string {
	switch {
	case d.A != nil:
		return d.A.Kind
	case d.B != nil:
		return d.B.Kind
	}
	return ""
}

// Missing reports which side ended early: "a", "b", or "".
func (d *EventDivergence) Missing() string {
	switch {
	case d.RawA == "" && d.RawB != "":
		return "a"
	case d.RawB == "" && d.RawA != "":
		return "b"
	}
	return ""
}

// DiffEvents streams two JSONL event streams in lockstep and reports the
// first divergent line. Because event streams are emitted in the engine's
// canonical (time, seq) order and are byte-deterministic for a fixed seed,
// positional alignment with a byte-compare fast path is exact; lines are
// only decoded at the divergence. Memory is O(Window) regardless of stream
// length. Schema headers are validated per side and excluded from the
// comparison.
func DiffEvents(a, b io.Reader, opts Options) (*EventDiff, error) {
	la, lb := newLineReader(a), newLineReader(b)
	if err := la.readHeader(telemetry.EventStreamSchema, telemetry.EventStreamVersion); err != nil {
		return nil, fmt.Errorf("rundiff: side a: %w", err)
	}
	if err := lb.readHeader(telemetry.EventStreamSchema, telemetry.EventStreamVersion); err != nil {
		return nil, fmt.Errorf("rundiff: side b: %w", err)
	}
	w := opts.window()
	ctxA, ctxB := newContextRing(w), newContextRing(w)
	var index int64
	for {
		lineA, okA, err := la.next()
		if err != nil {
			return nil, fmt.Errorf("rundiff: side a: %w", err)
		}
		lineB, okB, err := lb.next()
		if err != nil {
			return nil, fmt.Errorf("rundiff: side b: %w", err)
		}
		switch {
		case !okA && !okB:
			return &EventDiff{Equal: true, Events: index}, nil
		case okA && okB && bytes.Equal(lineA, lineB):
			ctxA.push(lineA)
			ctxB.push(lineB)
			index++
			continue
		}
		div := &EventDivergence{
			Index:    index,
			LineA:    la.lineNo,
			LineB:    lb.lineNo,
			ContextA: ctxA.strings(),
			ContextB: ctxB.strings(),
		}
		if okA {
			div.RawA = string(lineA)
			div.A = decodeEvent(lineA)
		} else {
			div.LineA = la.lineNo + 1 // the line that is missing
		}
		if okB {
			div.RawB = string(lineB)
			div.B = decodeEvent(lineB)
		} else {
			div.LineB = lb.lineNo + 1
		}
		if div.A != nil && div.B != nil {
			div.Fields = fieldDeltas(div.A.Payload.Map(), div.B.Payload.Map())
		}
		return &EventDiff{Events: index, Divergence: div}, nil
	}
}

// decodeEvent parses one event line, returning nil on malformed input — at a
// divergence the raw line still tells the story.
func decodeEvent(line []byte) *telemetry.Event {
	var ev telemetry.Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return nil
	}
	return &ev
}

// fieldDeltas computes the sorted union of differing payload fields.
func fieldDeltas(a, b map[string]float64) []FieldDelta {
	names := make([]string, 0, len(a)+len(b))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var out []FieldDelta
	for _, name := range names {
		va, inA := a[name]
		vb, inB := b[name]
		if inA && inB && va == vb {
			continue
		}
		out = append(out, FieldDelta{Name: name, A: va, B: vb, InA: inA, InB: inB})
	}
	return out
}
