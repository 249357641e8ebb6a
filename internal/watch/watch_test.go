package watch

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Synthetic-stream helpers: the tests drive the engine with hand-built event
// sequences so each detector's firing geometry is exact and deterministic.
// ---------------------------------------------------------------------------

const testInterval = 8000 // µs, matches the control profile's T

func emitTx(e *Engine, k int64, link int, delivered bool) {
	outcome := 1.0 // medium.Lost
	if delivered {
		outcome = 0 // medium.Delivered
	}
	e.Emit(telemetry.Event{
		K: k, At: sim.Time(k*testInterval + 500), Link: link, Kind: telemetry.EventTx,
		Fields: map[string]float64{"dur": 120, "empty": 0, "outcome": outcome},
	})
}

func emitInterval(e *Engine, k int64, expired float64) {
	e.Emit(telemetry.Event{
		K: k, At: sim.Time((k + 1) * testInterval), Link: -1, Kind: telemetry.EventInterval,
		Fields: map[string]float64{"arrivals": 1, "served": 1, "expired": expired},
	})
}

func emitConflict(e *Engine, a, b int) {
	e.Emit(telemetry.Event{
		K: 0, At: 0, Link: a, Kind: telemetry.EventConflict,
		Fields: map[string]float64{"peer": float64(b)},
	})
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func detectors(alerts []Alert) map[string]bool {
	out := map[string]bool{}
	for _, a := range alerts {
		if a.State == StateFiring {
			out[a.Detector] = true
		}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Links: 0},
		{Links: 2, Required: []float64{0.5}},
		{Links: 1, Required: []float64{-0.1}},
		{Links: 1, Required: []float64{0.5}, Budget: 1.5},
		{Links: 1, Required: []float64{0.5}, Budget: -0.1},
		{Links: 1, Required: []float64{0.5}, Budget: math.NaN()},
		{Links: 1, Required: []float64{0.5}, Budget: math.Inf(1)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
	if _, err := New(Config{Links: 1, Required: []float64{0.5}}); err != nil {
		t.Fatalf("minimal valid config rejected: %v", err)
	}
}

// TestHealthyLinkStaysSilent pins the zero-false-positive contract on the
// simplest possible healthy trace: one link served exactly at its arrival
// rate, above its requirement, forever.
func TestHealthyLinkStaysSilent(t *testing.T) {
	e := mustEngine(t, Config{Links: 1, Required: []float64{0.9}})
	for k := int64(0); k < 3000; k++ {
		emitTx(e, k, 0, true)
		emitInterval(e, k, 0)
	}
	if e.Count() != 0 {
		t.Fatalf("healthy trace raised %d alerts: %v", e.Count(), e.Alerts())
	}
	if e.Intervals() != 3000 {
		t.Fatalf("consumed %d intervals, want 3000", e.Intervals())
	}
}

// TestBurnRateFiresAndResolves starves a previously healthy link and demands
// the burn-rate detector fire after both EWMAs cross the budget, then resolve
// once service returns.
func TestBurnRateFiresAndResolves(t *testing.T) {
	e := mustEngine(t, Config{Links: 1, Required: []float64{0.8}})
	k := int64(0)
	for ; k < 1200; k++ { // healthy past priming
		emitTx(e, k, 0, true)
		emitInterval(e, k, 0)
	}
	if e.Count() != 0 {
		t.Fatalf("alerts during healthy priming: %v", e.Alerts())
	}
	for ; k < 2400; k++ { // total starvation
		emitInterval(e, k, 0)
	}
	if !detectors(e.Alerts())[DetectorBurnRate] {
		t.Fatalf("starved link did not fire burn_rate; alerts: %v", e.Alerts())
	}
	firedAt := int64(-1)
	for _, a := range e.Alerts() {
		if a.Detector == DetectorBurnRate && a.State == StateFiring {
			firedAt = a.K
			if a.Link != 0 || a.Scope != ScopeLink || a.Severity != SeverityCritical {
				t.Fatalf("burn alert mis-attributed: %+v", a)
			}
			break
		}
	}
	if firedAt < 1200 || firedAt > 1700 {
		t.Fatalf("burn_rate fired at k=%d, want shortly after starvation at 1200", firedAt)
	}
	for ; k < 5000; k++ { // recovery
		emitTx(e, k, 0, true)
		emitInterval(e, k, 0)
	}
	resolved := false
	for _, a := range e.Alerts() {
		if a.Detector == DetectorBurnRate && a.State == StateResolved {
			resolved = true
		}
	}
	if !resolved {
		t.Fatalf("burn_rate never resolved after recovery; firing now: %d", e.FiringNow())
	}
}

// TestCUSUMFiresOnDeliveryDrop breaks a perfect channel after the warmup
// baseline freezes; the standardized CUSUM must localize the change within a
// handful of samples.
func TestCUSUMFiresOnDeliveryDrop(t *testing.T) {
	e := mustEngine(t, Config{Links: 1, Required: []float64{0.5}})
	k := int64(0)
	for ; k < 1100; k++ { // warmup: delivery ratio 1.0
		emitTx(e, k, 0, true)
		emitInterval(e, k, 0)
	}
	for ; k < 1200; k++ { // channel breaks: attempts continue, nothing lands
		emitTx(e, k, 0, false)
		emitInterval(e, k, 0)
	}
	if !detectors(e.Alerts())[DetectorDeliveryCUSUM] {
		t.Fatalf("delivery drop did not fire delivery_cusum; alerts: %v", e.Alerts())
	}
	for _, a := range e.Alerts() {
		if a.Detector == DetectorDeliveryCUSUM && a.State == StateFiring {
			if a.K < 1100 || a.K > 1150 {
				t.Fatalf("cusum fired at k=%d, want within one batch of the break at 1100", a.K)
			}
		}
	}
}

// TestDebtDriftFiresOnInfeasibleLoad gives a link a requirement it never
// serves: its d⁺ grows linearly and the windowed regression must flag the
// drift after two hot windows.
func TestDebtDriftFiresOnInfeasibleLoad(t *testing.T) {
	e := mustEngine(t, Config{Links: 1, Required: []float64{0.5}})
	for k := int64(0); k < 2100; k++ {
		emitInterval(e, k, 0)
	}
	fired := int64(-1)
	for _, a := range e.Alerts() {
		if a.Detector == DetectorDebtDrift && a.State == StateFiring && a.Scope == ScopeLink {
			fired = a.K
			break
		}
	}
	if fired == -1 {
		t.Fatalf("linearly growing debt did not fire debt_drift; alerts: %v", e.Alerts())
	}
	if fired != 1999 {
		t.Fatalf("debt_drift fired at k=%d, want 1999 (fourth 500-interval window boundary)", fired)
	}
	// The network-scope series must agree.
	net := false
	for _, a := range e.Alerts() {
		if a.Detector == DetectorDebtDrift && a.Scope == ScopeNetwork && a.Link == -1 {
			net = true
		}
	}
	if !net {
		t.Error("network-scope drift series did not fire alongside the link series")
	}
}

// TestDebtDriftSilentOnBoundedOscillation keeps debt oscillating near zero —
// the stable regime — and demands silence from the drift detector.
func TestDebtDriftSilentOnBoundedOscillation(t *testing.T) {
	e := mustEngine(t, Config{Links: 1, Required: []float64{0.5}})
	for k := int64(0); k < 4000; k++ {
		if k%2 == 1 {
			emitTx(e, k, 0, true) // serve every other interval: d⁺ ∈ {0, 0.5}
		}
		emitInterval(e, k, 0)
	}
	for _, a := range e.Alerts() {
		if a.Detector == DetectorDebtDrift {
			t.Fatalf("stable oscillating debt fired drift: %+v", a)
		}
	}
}

// TestExpirySpikeFiresOnBurst freezes a quiet baseline and injects one
// expired-backlog burst; the spike detector must fire on the burst interval
// and resolve as the backlog drains.
func TestExpirySpikeFiresOnBurst(t *testing.T) {
	e := mustEngine(t, Config{Links: 1, Required: []float64{0}})
	k := int64(0)
	for ; k < 400; k++ {
		emitInterval(e, k, 1)
	}
	if e.Count() != 0 {
		t.Fatalf("quiet baseline raised alerts: %v", e.Alerts())
	}
	emitInterval(e, k, 60) // injected burst
	k++
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].Detector != DetectorExpirySpike ||
		alerts[0].State != StateFiring || alerts[0].K != 400 {
		t.Fatalf("burst interval alerts = %v, want one expiry_spike firing at k=400", alerts)
	}
	emitInterval(e, k, 1) // backlog drained
	alerts = e.Alerts()
	if len(alerts) != 2 || alerts[1].State != StateResolved {
		t.Fatalf("drained interval alerts = %v, want the spike resolved", alerts)
	}
	if e.FiringNow() != 0 {
		t.Fatalf("FiringNow = %d after resolution, want 0", e.FiringNow())
	}
	if e.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (resolutions are not counted)", e.Count())
	}
}

// TestNeighborhoodDriftSeries announces a two-clique conflict graph via
// conflict events and starves one clique: the drift alert must carry
// neighborhood scope with the clique's lowest link as subject, while the
// healthy clique stays quiet.
func TestNeighborhoodDriftSeries(t *testing.T) {
	e := mustEngine(t, Config{Links: 4, Required: []float64{0.5, 0.5, 0.5, 0.5}})
	emitConflict(e, 0, 1)
	emitConflict(e, 2, 3)
	for k := int64(0); k < 2100; k++ {
		emitTx(e, k, 2, true)
		emitTx(e, k, 3, true)
		emitInterval(e, k, 0)
	}
	sawNeighborhood := false
	for _, a := range e.Alerts() {
		if a.Scope != ScopeNeighborhood {
			continue
		}
		sawNeighborhood = true
		if a.Link != 0 {
			t.Fatalf("neighborhood alert names link %d, want 0 (lowest member of the starved clique): %+v", a.Link, a)
		}
	}
	if !sawNeighborhood {
		t.Fatalf("starved clique raised no neighborhood-scope drift alert; alerts: %v", e.Alerts())
	}
}

// TestAlertEventRoundTrip checks the alert → telemetry event field encoding
// that rtmacwatch and the flight recorder rely on.
func TestAlertEventRoundTrip(t *testing.T) {
	a := Alert{
		Detector: DetectorDebtDrift, Severity: SeverityCritical, State: StateFiring,
		K: 42, At: 344000, Link: 3, Scope: ScopeNeighborhood,
		Value: 0.02, Threshold: 0.01, Window: 500, Msg: "m",
	}
	ev := a.Event(make(map[string]float64))
	if ev.Kind != telemetry.EventAlert || ev.Check != DetectorDebtDrift ||
		ev.Link != 3 || ev.K != 42 || ev.Msg != "m" {
		t.Fatalf("event envelope wrong: %+v", ev)
	}
	want := map[string]float64{
		"severity": severityCodeCritical, "state": stateCodeFiring,
		"value": 0.02, "threshold": 0.01, "window": 500, "scope": scopeCodeNeighbor,
	}
	if !reflect.DeepEqual(ev.Fields, want) {
		t.Fatalf("event fields = %v, want %v", ev.Fields, want)
	}
}

// TestEngineEmitsAlertEvents wires an output sink and checks transitions
// arrive as "alert" events while non-transitions emit nothing.
func TestEngineEmitsAlertEvents(t *testing.T) {
	var got []telemetry.Event
	sink := sinkFunc(func(ev telemetry.Event) {
		cp := ev
		cp.Fields = map[string]float64{}
		for k, v := range ev.Fields {
			cp.Fields[k] = v
		}
		got = append(got, cp)
	})
	e := mustEngine(t, Config{Links: 1, Required: []float64{0}, Output: sink})
	for k := int64(0); k < 400; k++ {
		emitInterval(e, k, 1)
	}
	emitInterval(e, 400, 60)
	if len(got) != 1 || got[0].Kind != telemetry.EventAlert ||
		got[0].Check != DetectorExpirySpike || got[0].Fields["state"] != stateCodeFiring {
		t.Fatalf("output sink saw %v, want one firing expiry_spike alert event", got)
	}
}

type sinkFunc func(telemetry.Event)

func (f sinkFunc) Emit(ev telemetry.Event) { f(ev) }

// TestSummaryAndTally exercises the manifest summary and the cross-run tally.
func TestSummaryAndTally(t *testing.T) {
	e := mustEngine(t, Config{Links: 1, Required: []float64{0.5}})
	for k := int64(0); k < 2100; k++ {
		emitInterval(e, k, 0)
	}
	s := e.Summary()
	if s.Alerts == 0 || s.Firing == 0 || s.ByDetector[DetectorDebtDrift] == 0 {
		t.Fatalf("summary of an infeasible run is empty: %+v", s)
	}
	var tally Tally
	tally.Merge(e)
	tally.Merge(e)
	if tally.Runs() != 2 || tally.Alerts() != 2*s.Alerts {
		t.Fatalf("tally runs=%d alerts=%d, want 2 and %d", tally.Runs(), tally.Alerts(), 2*s.Alerts)
	}
	ts := tally.Summary()
	if ts.ByDetector[DetectorDebtDrift] != 2*s.ByDetector[DetectorDebtDrift] {
		t.Fatalf("tally by-detector = %v, want doubled %v", ts.ByDetector, s.ByDetector)
	}
}

// TestRegistryCounters checks the rtmac_watch_* counters move with alerts.
func TestRegistryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := mustEngine(t, Config{Links: 1, Required: []float64{0.5}, Registry: reg})
	for k := int64(0); k < 1100; k++ {
		emitInterval(e, k, 0)
	}
	if e.Count() == 0 {
		t.Fatal("no alerts fired")
	}
	var dump bytes.Buffer
	if err := reg.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "rtmac_watch_alerts_total") {
		t.Fatalf("registry dump missing rtmac_watch_alerts_total:\n%s", dump.String())
	}
}

// TestReplayJSONLMatchesLive records a synthetic stream and demands offline
// replay produce the identical alert sequence the live engine saw — the
// online/offline twin property rtmacwatch rests on.
func TestReplayJSONLMatchesLive(t *testing.T) {
	build := func() Config { return Config{Links: 1, Required: []float64{0.5}} }
	live := mustEngine(t, build())
	var buf bytes.Buffer
	stream := telemetry.NewJSONL(&buf)
	tee := telemetry.MultiSink{live, stream}
	for k := int64(0); k < 1200; k++ {
		ev := telemetry.Event{
			K: k, At: sim.Time((k + 1) * testInterval), Link: -1,
			Kind:   telemetry.EventInterval,
			Fields: map[string]float64{"arrivals": 1, "served": 0, "expired": 0},
		}
		tee.Emit(ev)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed := mustEngine(t, build())
	n, err := ReplayJSONL(&buf, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1200 {
		t.Fatalf("replayed %d events, want 1200", n)
	}
	if !reflect.DeepEqual(live.Alerts(), replayed.Alerts()) {
		t.Fatalf("replay diverged:\nlive:     %v\nreplayed: %v", live.Alerts(), replayed.Alerts())
	}
	if live.Count() == 0 {
		t.Fatal("test stream raised no alerts; the equality above proved nothing")
	}
}

// TestReplayJSONLRejectsWrongSchema demands a future-versioned header stop
// the replay instead of silently misreading the stream.
func TestReplayJSONLRejectsWrongSchema(t *testing.T) {
	e := mustEngine(t, Config{Links: 1, Required: []float64{0.5}})
	in := "{\"schema\":\"rtmac.events\",\"schema_version\":99}\n"
	if _, err := ReplayJSONL(strings.NewReader(in), e); err == nil {
		t.Fatal("version-99 header accepted")
	}
	bad := "not json\n"
	if _, err := ReplayJSONL(strings.NewReader(bad), e); err == nil {
		t.Fatal("malformed stream accepted")
	}
}
