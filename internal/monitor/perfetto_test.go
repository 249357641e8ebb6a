package monitor

import (
	"encoding/json"
	"strings"
	"testing"

	"rtmac/internal/telemetry"
)

func buildTrace(t *testing.T, events []telemetry.Event) string {
	t.Helper()
	var b strings.Builder
	p := NewPerfetto(&b, testLinks)
	for _, ev := range events {
		p.Emit(ev)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPerfettoDocumentShape(t *testing.T) {
	out := buildTrace(t, []telemetry.Event{
		txEvent(0, 0, 300, 200, 0),
		txEvent(0, 1, 600, 100, outcomeCollided),
		swapEvent(0, 1, 0, 1, true),
		debtEvent(0, 1),
		intervalEvent(0, 2),
		prioEvent(0, 1, 2, 3, 4),
		{K: 0, At: 900, Link: -1, Kind: telemetry.EventBackoff, Payload: telemetry.PayloadOf(map[string]float64{"slots": 3})},
		{K: 0, At: 950, Link: -1, Kind: telemetry.EventViolation, Check: "debt_sane", Msg: "x"},
	})
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("trace does not parse: %v\n%s", err, out)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byName := map[string]int{}
	var spans, instants, counters, metas int
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
		switch ev.Ph {
		case "X":
			spans++
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			metas++
		default:
			t.Errorf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
	}
	// Metadata: process name, N+1 thread names, one sort index.
	if metas != testLinks+3 {
		t.Errorf("%d metadata records, want %d", metas, testLinks+3)
	}
	if spans != 2 {
		t.Errorf("%d spans, want 2 (data + collision)", spans)
	}
	if byName["collision"] != 1 || byName["data"] != 1 {
		t.Errorf("span names = %v", byName)
	}
	// swap + backoff + violation are instants; interval + debt are counters.
	if instants != 3 {
		t.Errorf("%d instants, want 3", instants)
	}
	if counters != 2 {
		t.Errorf("%d counters, want 2", counters)
	}
	if byName["VIOLATION debt_sane"] != 1 {
		t.Errorf("violation instant missing: %v", byName)
	}
	// prio snapshots are deliberately not rendered.
	for name := range byName {
		if strings.HasPrefix(name, "prio") {
			t.Errorf("prio event leaked into the trace as %q", name)
		}
	}
	// The data span must start at At-dur on the link's own track.
	for _, ev := range doc.TraceEvents {
		if ev.Name == "data" {
			if ev.Ts != 100 || ev.Dur != 200 {
				t.Errorf("data span ts=%d dur=%d, want 100 and 200", ev.Ts, ev.Dur)
			}
			if ev.Tid != 1 {
				t.Errorf("data span on tid %d, want 1 (link 0)", ev.Tid)
			}
		}
	}
}

func TestPerfettoValidate(t *testing.T) {
	out := buildTrace(t, []telemetry.Event{
		txEvent(0, 0, 300, 200, 0),
		intervalEvent(0, 1),
	})
	n, err := ValidatePerfetto(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	// 7 metadata + 1 span + 1 counter.
	if n != 9 {
		t.Errorf("validated %d events, want 9", n)
	}
}

func TestPerfettoValidateRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"truncated": `{"displayTimeUnit":"ms","traceEvents":[{"name":"x","ph":"M"`,
		"empty":     `{"displayTimeUnit":"ms","traceEvents":[]}`,
		"phaseless": `{"traceEvents":[{"name":"x","ts":1}]}`,
		"not json":  `hello`,
	}
	for name, doc := range cases {
		if _, err := ValidatePerfetto(strings.NewReader(doc)); err == nil {
			t.Errorf("%s trace accepted", name)
		}
	}
}

func TestPerfettoDeterministic(t *testing.T) {
	events := []telemetry.Event{
		txEvent(0, 0, 300, 200, 0),
		swapEvent(0, 1, 0, 1, true),
		debtEvent(0, 1),
		intervalEvent(0, 1),
	}
	a := buildTrace(t, events)
	b := buildTrace(t, events)
	if a != b {
		t.Error("same events produced different trace bytes")
	}
}

func TestPerfettoCount(t *testing.T) {
	var b strings.Builder
	p := NewPerfetto(&b, 2)
	base := p.Count() // metadata
	p.Emit(txEvent(0, 0, 300, 200, 0))
	p.Emit(telemetry.Event{Kind: "unknown-kind"}) // ignored
	if got := p.Count() - base; got != 1 {
		t.Errorf("count grew by %d, want 1", got)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}
