package rtmac_test

import (
	"bytes"
	"strings"
	"testing"

	"rtmac"
)

func monitorTestSim(t *testing.T, p rtmac.Protocol) *rtmac.Simulation {
	t.Helper()
	links := make([]rtmac.Link, 6)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     7,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMonitorCleanDBDPRun(t *testing.T) {
	s := monitorTestSim(t, rtmac.DBDP())
	mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(200); err != nil {
		t.Fatalf("strict run failed: %v", err)
	}
	if n := mon.Count(); n != 0 {
		t.Fatalf("%d violations on a clean run, first: %v", n, mon.Violations()[0])
	}
	if mon.FlightRecorderEvents() == 0 {
		t.Error("flight recorder saw no events")
	}
}

func TestMonitorDoesNotPerturbTrajectory(t *testing.T) {
	plain := monitorTestSim(t, rtmac.DBDP())
	if err := plain.Run(150); err != nil {
		t.Fatal(err)
	}
	monitored := monitorTestSim(t, rtmac.DBDP())
	if _, err := monitored.EnableMonitor(rtmac.MonitorConfig{Strict: true}); err != nil {
		t.Fatal(err)
	}
	if err := monitored.Run(150); err != nil {
		t.Fatal(err)
	}
	a, b := plain.Report(), monitored.Report()
	if a.TotalDeficiency != b.TotalDeficiency || a.Channel.Transmissions != b.Channel.Transmissions {
		t.Fatalf("monitoring changed the trajectory: %v/%d vs %v/%d",
			a.TotalDeficiency, a.Channel.Transmissions, b.TotalDeficiency, b.Channel.Transmissions)
	}
}

func TestMonitorNoFalsePositivesOnDCF(t *testing.T) {
	s := monitorTestSim(t, rtmac.DCF())
	mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(150); err != nil {
		t.Fatalf("DCF under the strict monitor failed: %v", err)
	}
	if n := mon.Count(); n != 0 {
		t.Fatalf("%d false positives on DCF: %v", n, mon.Violations()[0])
	}
}

func TestMonitorFlightRecorderDumpAuditsClean(t *testing.T) {
	s := monitorTestSim(t, rtmac.DBDP())
	mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := mon.WriteFlightRecorder(&dump); err != nil {
		t.Fatal(err)
	}
	events, err := rtmac.DecodeEvents(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("dump is empty")
	}
	// The dump starts mid-run; the offline audit must re-anchor, not flag it.
	violations, err := rtmac.AuditEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("flight-recorder dump flagged: %v", violations)
	}
	var timeline bytes.Buffer
	if err := mon.WriteFlightRecorderTimeline(&timeline); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(timeline.String(), "== interval ") {
		t.Error("timeline has no interval headers")
	}
}

// TestFlightRecorderDumpMatchesStream pins one encoder for every writer of
// event JSON: each line of a flight-recorder dump equals the live stream's
// line for the same event. On the two-clique graph the dump starts with the
// pinned conflict events, which also open the stream; the retained window is
// the stream's tail (the run is longer than the window).
func TestFlightRecorderDumpMatchesStream(t *testing.T) {
	s := newHotPathSimConflicts(t, rtmac.DBDP(), hotPathConflicts(t))
	var live bytes.Buffer
	stream := s.StreamEvents(&live)
	mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2 * rtmac.DefaultFlightRecorderIntervals); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := mon.WriteFlightRecorder(&dump); err != nil {
		t.Fatal(err)
	}
	lines := func(b *bytes.Buffer) []string {
		return strings.SplitAfter(strings.TrimSuffix(b.String(), "\n"), "\n")
	}
	liveLines, dumpLines := lines(&live)[1:], lines(&dump) // [1:] drops the schema header
	pinned := 0
	for pinned < len(dumpLines) && strings.Contains(dumpLines[pinned], `"kind":"conflict"`) {
		pinned++
	}
	if pinned == 0 || len(dumpLines) == pinned {
		t.Fatalf("dump holds %d pinned and %d windowed lines, want both", pinned, len(dumpLines)-pinned)
	}
	tail := liveLines[len(liveLines)-(len(dumpLines)-pinned):]
	for i, line := range dumpLines {
		want := liveLines[i]
		if i >= pinned {
			want = tail[i-pinned]
		}
		if line != want {
			t.Fatalf("dump line %d differs from the stream:\ndump:   %q\nstream: %q", i, line, want)
		}
	}
}

func TestExportPerfettoValidTrace(t *testing.T) {
	s := monitorTestSim(t, rtmac.DBDP())
	var out bytes.Buffer
	trace := s.ExportPerfetto(&out)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	if err := trace.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := rtmac.ValidatePerfettoTrace(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("200-interval trace invalid: %v", err)
	}
	if int64(n) != trace.Count() {
		t.Errorf("validator counted %d events, exporter wrote %d", n, trace.Count())
	}
	if n < 200 {
		t.Errorf("only %d trace events for 200 intervals", n)
	}
}

func TestSinksCompose(t *testing.T) {
	// JSONL stream + monitor + Perfetto attached together: every consumer
	// sees the run, and the stream still decodes and audits clean.
	s := monitorTestSim(t, rtmac.DBDP())
	var jsonl, trace bytes.Buffer
	stream := s.StreamEvents(&jsonl)
	mon, err := s.EnableMonitor(rtmac.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pt := s.ExportPerfetto(&trace)
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pt.Flush(); err != nil {
		t.Fatal(err)
	}
	if stream.Count() == 0 || pt.Count() == 0 || mon.FlightRecorderEvents() == 0 {
		t.Fatalf("a sink saw nothing: stream=%d perfetto=%d recorder=%d",
			stream.Count(), pt.Count(), mon.FlightRecorderEvents())
	}
	events, err := rtmac.DecodeEvents(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	violations, err := rtmac.AuditEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("composed-sink stream flagged: %v", violations)
	}
	if _, err := rtmac.ValidatePerfettoTrace(bytes.NewReader(trace.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestAuditEventsEmptyStream(t *testing.T) {
	if _, err := rtmac.AuditEvents(nil); err == nil {
		t.Error("empty stream audited without error")
	}
}
