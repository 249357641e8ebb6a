package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// kindExemplars returns one realistic event per canonical kind, with the
// payload shapes the simulator's instrumentation points actually emit (see
// the kind constants in event.go and docs/OBSERVABILITY.md).
func kindExemplars() []Event {
	return withPayloads([]Event{
		{K: 3, At: 6120, Link: 2, Kind: EventTx,
			Fields: map[string]float64{"dur": 120, "empty": 0, "outcome": 1}},
		{K: 3, At: 8000, Link: -1, Kind: EventInterval,
			Fields: map[string]float64{"arrivals": 6, "served": 4, "pending": 9}},
		{K: 3, At: 8000, Link: -1, Kind: EventSwap,
			Fields: map[string]float64{"pos": 2, "down": 5, "up": 1, "accepted": 1}},
		{K: 3, At: 8000, Link: -1, Kind: EventDebt,
			Fields: map[string]float64{"max": 2.5, "mean": 0.75, "positive": 4}},
		{K: 4, At: 8000, Link: 7, Kind: EventBackoff,
			Fields: map[string]float64{"slots": 3}},
		{K: 4, At: 10000, Link: -1, Kind: EventPriority,
			Fields: map[string]float64{"l0": 2, "l1": 1, "l2": 3}},
		{K: 4, At: 10000, Link: 0, Kind: EventViolation,
			Check: "debt-nonnegative", Msg: "link 0 debt -0.25 after update",
			Fields: map[string]float64{"debt": -0.25}},
		{K: 5, At: 12000, Link: -1, Kind: EventStall,
			Fields: map[string]float64{"budget_ns": 1e6, "elapsed_ns": 3e6,
				"overrun_ns": 2e6, "gc_pauses": 1, "cause": 1}},
		{K: 1200, At: 9600000, Link: 3, Kind: EventAlert,
			Check: "burn_rate", Msg: "link 3 burning 2.1x deadline-miss budget",
			Fields: map[string]float64{"severity": 2, "state": 1, "value": 2.1,
				"threshold": 1, "window": 1000, "scope": 0}},
	})
}

// TestEventRoundTripAllKinds pushes one event of every canonical kind through
// encode -> decode -> re-encode and demands the two encodings be
// byte-identical (including the schema header). This is the property the
// rundiff engine's byte-compare fast path rests on: any decode/encode
// asymmetry would make a re-encoded stream diff against its own source.
func TestEventRoundTripAllKinds(t *testing.T) {
	in := kindExemplars()
	kinds := map[string]bool{}
	for _, ev := range in {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{EventTx, EventInterval, EventSwap, EventDebt,
		EventBackoff, EventPriority, EventViolation, EventStall, EventAlert} {
		if !kinds[want] {
			t.Fatalf("exemplar list missing kind %q", want)
		}
	}

	encode := func(evs []Event) []byte {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for _, ev := range evs {
			sink.Emit(ev)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := encode(in)
	decoded, err := DecodeJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, decoded) {
		t.Fatalf("decode mismatch:\n in: %+v\nout: %+v", in, decoded)
	}
	second := encode(decoded)
	if !bytes.Equal(first, second) {
		t.Errorf("re-encode not byte-identical:\nfirst:  %q\nsecond: %q", first, second)
	}
}

// TestEventRoundTripPerKind repeats the byte-identity check one kind at a
// time, so a failure names the offending kind instead of the whole batch.
func TestEventRoundTripPerKind(t *testing.T) {
	for _, ev := range kindExemplars() {
		ev := ev
		t.Run(ev.Kind, func(t *testing.T) {
			var buf bytes.Buffer
			sink := NewJSONL(&buf)
			sink.Emit(ev)
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			decoded, err := DecodeJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded) != 1 || !reflect.DeepEqual(decoded[0], ev) {
				t.Fatalf("decode mismatch: %+v, want %+v", decoded, ev)
			}
			var buf2 bytes.Buffer
			sink2 := NewJSONL(&buf2)
			sink2.Emit(decoded[0])
			if err := sink2.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, buf2.Bytes()) {
				t.Errorf("re-encode differs:\nfirst:  %q\nsecond: %q", first, buf2.Bytes())
			}
		})
	}
}

// FuzzDecodeEvents throws arbitrary text at the event-stream decoder. The
// properties under fuzz: it never panics, and anything it accepts reaches a
// fixed point after one encode — decode(encode(events)) re-encodes
// byte-identically. (The first round trip may normalize, e.g. an explicit
// empty "f":{} is dropped by omitempty; after that the bytes must be stable.)
// The seeds cover the header line, every event kind, and the malformed shapes
// the decoder must reject gracefully.
func FuzzDecodeEvents(f *testing.F) {
	var seed bytes.Buffer
	sink := NewJSONL(&seed)
	for _, ev := range kindExemplars() {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("{\"schema\":\"rtmac.events\",\"schema_version\":1}\n")
	f.Add("{\"schema\":\"rtmac.events\",\"schema_version\":99}\n")
	f.Add("{\"schema\":\"rtmac.journeys\",\"schema_version\":1}\n")
	f.Add("{\"k\":0,\"t\":120,\"link\":3,\"kind\":\"tx\",\"f\":{\"dur\":120}}\n")
	f.Add("{\"k\":1,\"t\":0,\"link\":-1,\"kind\":\"violation\",\"check\":\"c\",\"msg\":\"m\"}\n")
	f.Add("{\"k\":\"not a number\"}\n")
	f.Add("not json at all\n")
	f.Add("{\"k\":0}{\"k\":1}\n")
	encode := func(t *testing.T, evs []Event) []byte {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for _, ev := range evs {
			sink.Emit(ev)
		}
		if err := sink.Flush(); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, payload string) {
		events, err := DecodeJSONL(strings.NewReader(payload))
		if err != nil {
			return
		}
		first := encode(t, events)
		again, err := DecodeJSONL(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(events) != len(again) {
			t.Fatalf("round trip changed length: %d -> %d", len(events), len(again))
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("encoding not a fixed point:\nfirst:  %q\nsecond: %q", first, second)
		}
	})
}

// TestEmittedKindsRoundTrip builds one event of every kind the simulator
// emits the way its emitters do (a payload of the kind's canonical schema,
// a violation's converted from its field map) and demands that decoding its
// line yields the same canonical schema and values, and that re-encoding
// the decoded event writes the same bytes.
func TestEmittedKindsRoundTrip(t *testing.T) {
	fill := func(s *Schema, values ...float64) *Payload {
		p := NewPayload(s)
		copy(p.Values, values)
		return p
	}
	prio := func(links int) *Payload {
		p := NewPayload(PrioSchema(links))
		for link := 0; link < links; link++ {
			p.Values[p.Schema.Index(PrioName(link))] = float64((link*7)%links + 1)
		}
		return p
	}
	events := []Event{
		{K: 3, At: 6120, Link: 2, Kind: EventTx, Payload: fill(TxSchema, 120, 0, 1)},
		{K: 3, At: 2000, Link: 7, Kind: EventBackoff, Payload: fill(BackoffSchema, 3)},
		{K: 3, At: 8000, Link: -1, Kind: EventSwap, Payload: fill(SwapSchema, 1, 5, 2, 1)},
		{K: 3, At: 8000, Link: -1, Kind: EventDebt, Payload: fill(DebtSchema, 2.5, 0.75, 4)},
		{K: 3, At: 8000, Link: -1, Kind: EventInterval, Payload: fill(IntervalSchema, 6, 0, 4)},
		{K: 3, At: 8000, Link: -1, Kind: EventPriority, Payload: prio(10)},
		{K: 3, At: 8000, Link: -1, Kind: EventPriority, Payload: prio(17)},
		{K: 0, At: 0, Link: 1, Kind: EventConflict, Payload: fill(ConflictSchema, 4)},
		{K: 4, At: 10000, Link: -1, Kind: EventViolation, Check: "permutation_valid",
			Msg:     "priority snapshot names 9 links, want 10",
			Payload: PayloadOf(map[string]float64{"got": 9, "want": 10})},
		{K: 1200, At: 9600000, Link: 3, Kind: EventAlert, Check: "burn_rate",
			Msg: "link 3 burning 2.1x deadline-miss budget", Payload: fill(AlertSchema, 0, 2, 1, 1, 2.1, 1000)},
		{K: 5, At: 12000, Link: -1, Kind: EventStall, Payload: fill(StallSchema, 1e6, 1, 3e6, 2e6, 1, 2e6, 0)},
	}
	for _, ev := range events {
		t.Run(ev.Kind+"/"+strconv.Itoa(ev.Payload.Len()), func(t *testing.T) {
			line, err := AppendJSON(nil, ev)
			if err != nil {
				t.Fatal(err)
			}
			var got Event
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if want := canonicalSchema(ev.Payload.Schema.names); want != nil && got.Payload.Schema != want {
				t.Errorf("decoded schema %v is not the canonical %v", got.Payload.Schema.names, want.names)
			}
			if !reflect.DeepEqual(got.Payload, ev.Payload) || !reflect.DeepEqual(got.Fields, ev.Payload.Map()) {
				t.Errorf("decoded payload %+v, fields %v; want %+v", got.Payload, got.Fields, ev.Payload)
			}
			again, err := AppendJSON(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(line, again) {
				t.Errorf("re-encode differs:\nfirst:  %q\nsecond: %q", line, again)
			}
		})
	}
}

// TestCanonicalSchemaPositions holds the field position constants to the
// sorted order NewSchema gives the canonical schemas.
func TestCanonicalSchemaPositions(t *testing.T) {
	for _, c := range []struct {
		s     *Schema
		names []string
		pos   []int
	}{
		{TxSchema, []string{"dur", "empty", "outcome"}, []int{TxDur, TxEmpty, TxOutcome}},
		{BackoffSchema, []string{"slots"}, []int{BackoffSlots}},
		{SwapSchema, []string{"accepted", "down", "pos", "up"}, []int{SwapAccepted, SwapDown, SwapPos, SwapUp}},
		{DebtSchema, []string{"max", "mean", "positive"}, []int{DebtMax, DebtMean, DebtPositive}},
		{IntervalSchema, []string{"arrivals", "expired", "served"}, []int{IntervalArrivals, IntervalExpired, IntervalServed}},
		{ConflictSchema, []string{"peer"}, []int{ConflictPeer}},
		{StallSchema, []string{"budget_ns", "cause", "elapsed_ns", "gc_pause_ns", "gc_pauses", "overrun_ns", "sched_p99_ns"},
			[]int{StallBudget, StallCause, StallElapsed, StallGCPause, StallGCPauses, StallOverrun, StallSchedP99}},
		{AlertSchema, []string{"scope", "severity", "state", "threshold", "value", "window"},
			[]int{AlertScope, AlertSeverity, AlertState, AlertThreshold, AlertValue, AlertWindow}},
	} {
		if c.s.Len() != len(c.names) {
			t.Errorf("schema %v has %d fields, want %d", c.s.names, c.s.Len(), len(c.names))
		}
		for i, name := range c.names {
			if got := c.s.Index(name); got != c.pos[i] {
				t.Errorf("field %q at %d, constant says %d", name, got, c.pos[i])
			}
		}
	}
	if s := PrioSchema(12); s != PrioSchema(12) || s.Name(2) != "l10" || s.Index("l2") != 4 {
		t.Errorf("PrioSchema(12) = %v, want one shared schema in sorted order", s.names)
	}
}
