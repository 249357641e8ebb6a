package rtmac_test

import (
	"bytes"
	"strings"
	"testing"

	"rtmac"
	"rtmac/internal/rundiff"
	"rtmac/internal/telemetry"
)

func controlSim(t *testing.T, seed uint64) *rtmac.Simulation {
	t.Helper()
	links := make([]rtmac.Link, 10)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     seed,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEventStreamDeterminism is the acceptance gate for reproducible
// observability: two runs with equal seeds and configurations must produce
// byte-identical JSONL event streams.
func TestEventStreamDeterminism(t *testing.T) {
	run := func() []byte {
		s := controlSim(t, 7)
		var buf bytes.Buffer
		stream := s.StreamEvents(&buf)
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
		if err := stream.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("event stream empty")
	}
	// rundiff -check-equal semantics enforce the contract: equality must be
	// byte-exact, and a breach names its first divergent event rather than
	// just "streams differ".
	d, err := rundiff.DiffEvents(bytes.NewReader(a), bytes.NewReader(b), rundiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal {
		div := d.Divergence
		t.Fatalf("same-seed event streams differ at event %d: k=%d link=%d kind=%s\n  a: %s\n  b: %s",
			div.Index, div.K(), div.Link(), div.Kind(), div.RawA, div.RawB)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("rundiff reported equality but raw bytes differ (header handling bug)")
	}
	// A different seed must produce a different trajectory — otherwise the
	// determinism above would be vacuous.
	s := controlSim(t, 8)
	var buf bytes.Buffer
	stream := s.StreamEvents(&buf)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, buf.Bytes()) {
		t.Fatal("different seeds produced identical event streams")
	}
}

func TestEventStreamParsesAndCovers(t *testing.T) {
	s := controlSim(t, 3)
	var buf bytes.Buffer
	stream := s.StreamEvents(&buf)
	const intervals = 50
	if err := s.Run(intervals); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(events)) != stream.Count() {
		t.Errorf("decoded %d events, stream reports %d", len(events), stream.Count())
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[telemetry.EventInterval] != intervals {
		t.Errorf("interval events = %d, want %d", kinds[telemetry.EventInterval], intervals)
	}
	if kinds[telemetry.EventDebt] != intervals {
		t.Errorf("debt events = %d, want %d", kinds[telemetry.EventDebt], intervals)
	}
	// DB-DP draws one swap pair per interval on N >= 2 links.
	if kinds[telemetry.EventSwap] != intervals {
		t.Errorf("swap events = %d, want %d", kinds[telemetry.EventSwap], intervals)
	}
	if kinds[telemetry.EventTx] == 0 {
		t.Error("no tx events")
	}
	// Tx event count must match the channel counter.
	if txTotal, err := s.Telemetry().Counter("rtmac_tx_total"); err != nil || int(txTotal) != kinds[telemetry.EventTx] {
		t.Errorf("tx events = %d, rtmac_tx_total = %d (err %v)", kinds[telemetry.EventTx], txTotal, err)
	}
}

func TestTelemetryExposition(t *testing.T) {
	s := controlSim(t, 1)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	var prom strings.Builder
	if err := s.Telemetry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rtmac_tx_total ",
		"rtmac_tx_delivered_total ",
		"rtmac_airtime_busy_us_total ",
		"rtmac_channel_utilization ",
		"rtmac_swap_accepted_total ",
		"rtmac_swap_rejected_total ",
		"rtmac_debt_positive_bucket{le=",
		"rtmac_backoff_slots_count ",
		"rtmac_intervals_total 100",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus dump missing %q", want)
		}
	}
	var js strings.Builder
	if err := s.Telemetry().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "\"rtmac_tx_total\"") {
		t.Error("JSON snapshot missing rtmac_tx_total")
	}
	// The compatibility view and the registry must agree.
	rep := s.Report()
	txTotal, err := s.Telemetry().Counter("rtmac_tx_total")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Channel.Transmissions != int(txTotal) {
		t.Errorf("Report transmissions %d != registry %d", rep.Channel.Transmissions, txTotal)
	}
	if _, err := s.Telemetry().Counter("rtmac_no_such_metric"); err == nil {
		t.Error("unknown counter lookup did not error")
	}
}

func TestManifest(t *testing.T) {
	s := controlSim(t, 9)
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.Manifest("telemetry-test", map[string]string{"note": "unit"}).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\"seed\": 9",
		"\"protocol\": \"dbdp[glauber[log(100),R=10]]\"",
		"\"profile\": \"control\"",
		"\"links\": 10",
		"\"intervals\": 20",
		"\"sim_time_us\": 40000",
		"\"note\": \"unit\"",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("manifest missing %q:\n%s", want, sb.String())
		}
	}
}

// TestMonitorRenderIntervalDrawsCollisions renders DCF intervals from the
// flight recorder: every collision the channel counted in a retained
// interval must show up as a 'C' in some lane.
func TestMonitorRenderIntervalDrawsCollisions(t *testing.T) {
	links := make([]rtmac.Link, 8)
	for i := range links {
		links[i] = rtmac.Link{SuccessProb: 0.7, Arrivals: rtmac.MustBernoulliArrivals(0.9), DeliveryRatio: 0.95}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed: 11, Profile: rtmac.ControlProfile(), Links: links, Protocol: rtmac.DCF(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := s.EnableMonitor(rtmac.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const intervals = 40
	if err := s.Run(intervals); err != nil {
		t.Fatal(err)
	}
	if s.Report().Channel.Collisions == 0 {
		t.Fatal("DCF run had no collisions to draw")
	}
	drawn := 0
	for k := int64(0); k < intervals; k++ {
		lanes := timelineLanes(t, mon, k)
		if len(lanes) != len(links) {
			t.Fatalf("interval %d: %d lanes, want %d", k, len(lanes), len(links))
		}
		drawn += strings.Count(strings.Join(lanes, ""), "C")
	}
	if drawn == 0 {
		t.Fatal("no collision glyph in any DCF interval")
	}
}
