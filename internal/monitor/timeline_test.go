package monitor

import (
	"bytes"
	"strings"
	"testing"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// span is a tx event for a transmission on link over [start, end).
func span(link int, start, end sim.Time, empty bool, outcome medium.Outcome) telemetry.Event {
	e := 0.0
	if empty {
		e = 1
	}
	return telemetry.Event{
		At: end, Link: link, Kind: telemetry.EventTx,
		Payload: telemetry.PayloadOf(map[string]float64{"dur": float64(end - start), "empty": e, "outcome": float64(outcome)}),
	}
}

func TestRenderTimeline(t *testing.T) {
	events := []telemetry.Event{
		span(0, 0, 100, false, medium.Delivered),
		span(1, 110, 210, false, medium.Lost),
		span(0, 220, 290, true, medium.Delivered),
		span(2, 300, 400, false, medium.Collided),
		intervalEvent(0, 1), // non-tx events are ignored
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, events, 0, 400, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"link  0", "link  1", "link  2", "D", "x", "e", "C", "legend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Lane 1 must contain 'x' but no 'D'.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "link  1") && strings.Contains(line, "D") {
			t.Fatalf("lane 1 contains a delivery: %s", line)
		}
	}
}

func TestRenderTimelineValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, nil, 0, 100, 40); err == nil {
		t.Fatal("no events accepted")
	}
	if err := RenderTimeline(&buf, []telemetry.Event{intervalEvent(0, 1)}, 0, 100, 40); err == nil {
		t.Fatal("events without a transmission accepted")
	}
	if err := RenderTimeline(&buf, []telemetry.Event{span(0, 0, 1, false, medium.Delivered)}, 100, 100, 40); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestRenderTimelineClipsOutOfWindow(t *testing.T) {
	events := []telemetry.Event{
		span(0, 0, 50, false, medium.Delivered),    // before window
		span(0, 500, 600, false, medium.Delivered), // after window
		span(0, 90, 210, false, medium.Delivered),  // straddles start
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, events, 100, 400, 30); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "D") {
		t.Fatalf("straddling transmission not drawn:\n%s", out)
	}
}

func TestRenderTimelineEmptyRing(t *testing.T) {
	r, err := NewFlightRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, r.Events(), 0, 100, 40); err == nil {
		t.Fatal("empty recorder accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("empty recorder still produced output:\n%s", buf.String())
	}
}

func TestRenderTimelineAllRecordsOutsideWindow(t *testing.T) {
	events := []telemetry.Event{
		span(0, 0, 50, false, medium.Delivered),
		span(1, 900, 1000, false, medium.Lost),
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, events, 100, 800, 20); err != nil {
		t.Fatal(err)
	}
	// Lanes still render for every link seen, but carry only idle time.
	out := buf.String()
	lanes := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "link ") {
			continue
		}
		lanes++
		lane := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
		if lane != strings.Repeat(".", 20) {
			t.Fatalf("out-of-window transmission drawn: %s", line)
		}
	}
	if lanes != 2 {
		t.Fatalf("rendered %d lanes, want 2:\n%s", lanes, out)
	}
}

func TestRenderTimelineNarrowWidthFallsBackToDefault(t *testing.T) {
	events := []telemetry.Event{span(0, 0, 100, false, medium.Delivered)}
	for _, width := range []int{-3, 0, 9} {
		var buf bytes.Buffer
		if err := RenderTimeline(&buf, events, 0, 400, width); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "link  0") {
				continue
			}
			lane := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
			if len(lane) != 80 {
				t.Fatalf("width %d: lane is %d columns, want the 80-column default", width, len(lane))
			}
		}
	}
}

func TestRenderTimelineSingleSlotWindow(t *testing.T) {
	// A window of a single time unit is the degenerate interval; every
	// overlapping transmission collapses onto the same columns without
	// panicking.
	events := []telemetry.Event{
		span(0, 0, 1, false, medium.Delivered),
		span(1, 0, 5, false, medium.Lost), // clipped to the window
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, events, 0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "D") || !strings.Contains(out, "x") {
		t.Fatalf("single-slot window lost transmissions:\n%s", out)
	}
}

func TestRenderTimelineOneColumnRecord(t *testing.T) {
	// A zero-duration transmission at an interior instant maps to exactly
	// one column.
	events := []telemetry.Event{span(0, 100, 100, false, medium.Delivered)}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, events, 0, 400, 40); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "D"); n != 2 {
		// One in the lane, one in the legend.
		t.Fatalf("zero-duration transmission drew %d 'D' glyphs, want exactly 1 in the lane:\n%s",
			n-1, buf.String())
	}
}
