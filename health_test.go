package rtmac_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rtmac"
)

func newHealthTestSim(t *testing.T) *rtmac.Simulation {
	t.Helper()
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     7,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(10, 0.7, 0.6, 0.99),
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestWatchdogFiresEndToEnd drives the whole stall pipeline under an
// artificially tiny slot budget: every interval overruns 1 ns of allowance,
// so stall events must reach both the JSONL stream and the monitor's flight
// recorder, and the manifest must carry the watchdog verdict.
func TestWatchdogFiresEndToEnd(t *testing.T) {
	sim := newHealthTestSim(t)
	var events bytes.Buffer
	stream := sim.StreamEvents(&events, rtmac.OnlyEvents("stall"))
	mon, err := sim.EnableMonitor(rtmac.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.EnableHealth(rtmac.HealthConfig{SlotBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	h.Stop()
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}

	if h.Overruns() == 0 {
		t.Fatal("1 ns budget produced no overruns")
	}
	evs, err := rtmac.DecodeEvents(&events)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no stall events reached the stream")
	}
	for _, ev := range evs {
		if ev.Kind != "stall" || ev.Link != -1 {
			t.Fatalf("unexpected event %+v", ev)
		}
		if ev.Fields["overrun_ns"] <= 0 {
			t.Fatalf("stall without positive overrun: %+v", ev)
		}
	}

	// The monitor must tolerate the new kind (no violations) and the flight
	// recorder must have retained the stall entries.
	if n := mon.Count(); n != 0 {
		t.Fatalf("monitor flagged %d violations on stall events", n)
	}
	var dump bytes.Buffer
	if err := mon.WriteFlightRecorder(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), `"stall"`) {
		t.Fatal("flight recorder dump carries no stall entries")
	}

	m := sim.Manifest("test", nil).Raw()
	if m.Health == nil {
		t.Fatal("manifest missing health summary")
	}
	if m.Health.Overruns == 0 || m.Health.WatchdogIntervals != 50 {
		t.Fatalf("watchdog verdict not in manifest: %+v", m.Health)
	}
	if m.Health.Samples < 1 {
		t.Fatalf("collector contributed no samples: %+v", m.Health)
	}
}

// TestHealthResultsDeterministic pins sim purity at the API level: identical
// seeds produce identical reports with and without the health plane (the
// huge budget keeps non-deterministic stall events out of play).
func TestHealthResultsDeterministic(t *testing.T) {
	run := func(withHealth bool) rtmac.Report {
		sim := newHealthTestSim(t)
		if withHealth {
			h, err := sim.EnableHealth(rtmac.HealthConfig{SlotBudget: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Stop()
		}
		if err := sim.Run(1000); err != nil {
			t.Fatal(err)
		}
		return sim.Report()
	}
	plain := run(false)
	healthy := run(true)
	if plain.TotalDeficiency != healthy.TotalDeficiency ||
		plain.Channel != healthy.Channel {
		t.Fatalf("reports diverge with health enabled:\nplain   %+v\nhealthy %+v",
			plain, healthy)
	}
}

// TestHealthServeEndpoints checks the live plane: /api/health serves a valid
// enabled document and /debug/pprof/profile?seconds=1 returns a CPU profile
// on a -serve -health style run.
func TestHealthServeEndpoints(t *testing.T) {
	sim := newHealthTestSim(t)
	h, err := sim.EnableHealth(rtmac.HealthConfig{SlotBudget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	obsrv, err := sim.ServeObservability("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer obsrv.Close()
	if err := sim.Run(500); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + obsrv.Addr() + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/health status %d: %s", resp.StatusCode, body)
	}
	if err := rtmac.ValidateHealthDoc(bytes.NewReader(body)); err != nil {
		t.Fatalf("invalid /api/health document: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), `"enabled": true`) {
		t.Fatalf("/api/health not enabled with health plane attached:\n%s", body)
	}

	resp, err = http.Get("http://" + obsrv.Addr() + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/profile status %d: %s", resp.StatusCode, prof)
	}
	if len(prof) == 0 {
		t.Fatal("empty CPU profile from /debug/pprof/profile")
	}
}

// TestEnableHealthTwiceFails guards the single-plane invariant.
func TestEnableHealthTwiceFails(t *testing.T) {
	sim := newHealthTestSim(t)
	h, err := sim.EnableHealth(rtmac.HealthConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	if _, err := sim.EnableHealth(rtmac.HealthConfig{}); err == nil {
		t.Fatal("second EnableHealth accepted")
	}
}
