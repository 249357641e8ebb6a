package obs_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rtmac/internal/arrival"
	"rtmac/internal/core"
	"rtmac/internal/health"
	"rtmac/internal/mac"
	"rtmac/internal/obs"
	"rtmac/internal/phy"
	"rtmac/internal/telemetry"
)

// newControlNetwork builds the paper's control scenario with the given event
// sink (nil = observability disabled).
func newControlNetwork(tb testing.TB, sink telemetry.Sink) *mac.Network {
	tb.Helper()
	const links = 10
	proc, err := arrival.NewBernoulli(0.78)
	if err != nil {
		tb.Fatal(err)
	}
	av, err := arrival.Uniform(links, proc)
	if err != nil {
		tb.Fatal(err)
	}
	prob := make([]float64, links)
	req := make([]float64, links)
	for i := range prob {
		prob[i] = 0.7
		req[i] = 0.99 * 0.78
	}
	prot, err := core.NewDBDP(links)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := mac.NewNetwork(mac.NetworkConfig{
		Seed:        1,
		Profile:     phy.Control(),
		SuccessProb: prob,
		Arrivals:    av,
		Required:    req,
		Protocol:    prot,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if sink != nil {
		nw.SetEventSink(sink)
	}
	return nw
}

// BenchmarkIntervalPlaneDisabled is the disabled-plane case: no sink, so the
// interval loop takes the `sink == nil` fast path and skips event
// construction entirely. It must match the root package's
// BenchmarkIntervalDBDP (the pre-plane baseline) — a regression here means
// the plane leaks work into runs that never asked for it.
func BenchmarkIntervalPlaneDisabled(b *testing.B) {
	nw := newControlNetwork(b, nil)
	b.ResetTimer()
	if err := nw.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIntervalPlaneIdle attaches the plane's broker with zero SSE
// subscribers — the -serve steady state when nobody is watching. Attaching
// any sink turns on event construction in the instrumentation layer, so this
// costs more than disabled; the broker itself stays allocation-free (see
// TestBrokerEmitZeroSubscribersDoesNotAllocate).
func BenchmarkIntervalPlaneIdle(b *testing.B) {
	plane := obs.NewPlane(nil)
	nw := newControlNetwork(b, plane.Broker)
	b.ResetTimer()
	if err := nw.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIntervalHealthDisabled pins the health plane's when-disabled
// contract: a network with no collector, no watchdog hooks and no sink runs
// the same allocation-free interval loop as before the plane existed. The
// bench gate fails CI on any allocs/op growth here.
func BenchmarkIntervalHealthDisabled(b *testing.B) {
	nw := newControlNetwork(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	if err := nw.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// TestIntervalZeroAllocHealthDisabled is the test-shaped version of the
// benchmark above: with the health plane disabled, the interval hot path
// allocates nothing.
func TestIntervalZeroAllocHealthDisabled(t *testing.T) {
	nw := newControlNetwork(t, nil)
	if err := nw.Run(200); err != nil { // warm up steady state
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := nw.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("interval with health disabled allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkIntervalHealthEnabled is the enabled counterpart: a collector
// sampling in the background plus watchdog brackets on every interval (the
// budget is huge, so the in-budget fast path is what is measured).
func BenchmarkIntervalHealthEnabled(b *testing.B) {
	nw := newControlNetwork(b, nil)
	col := health.NewCollector(health.CollectorConfig{Registry: nw.Telemetry()})
	col.Start()
	defer col.Stop()
	dog := health.NewWatchdog(health.WatchdogConfig{Budget: time.Hour, Registry: nw.Telemetry()})
	nw.AddProbe(dog)
	b.ReportAllocs()
	b.ResetTimer()
	if err := nw.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// TestEventStreamDeterministicWithHealth is the sim-purity contract: a
// fixed-seed run produces a byte-identical event stream whether or not the
// health plane is attached. The collector samples concurrently and the
// watchdog brackets every interval, but neither may perturb the simulation
// clock or RNG; the watchdog's huge budget keeps its (wall-clock-truthful,
// inherently non-deterministic) stall events out of the stream.
func TestEventStreamDeterministicWithHealth(t *testing.T) {
	run := func(withHealth bool) []byte {
		var buf bytes.Buffer
		stream := telemetry.NewJSONL(&buf)
		nw := newControlNetwork(t, stream)
		if withHealth {
			col := health.NewCollector(health.CollectorConfig{
				Period:   10 * time.Millisecond,
				Registry: nw.Telemetry(),
			})
			col.Start()
			defer col.Stop()
			dog := health.NewWatchdog(health.WatchdogConfig{
				Budget:   time.Hour,
				Sink:     stream,
				Registry: nw.Telemetry(),
			})
			nw.AddProbe(dog)
		}
		if err := nw.Run(2000); err != nil {
			t.Fatal(err)
		}
		if err := stream.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := run(false)
	healthy := run(true)
	if !bytes.Equal(plain, healthy) {
		t.Fatalf("event streams diverge with health enabled: %d vs %d bytes",
			len(plain), len(healthy))
	}
}

// TestHealthEndpointServesValidDoc drives /api/health through the plane's
// handler with and without a provider: both must serve parseable documents,
// and the no-provider default must still identify the runtime (the dashboard
// header depends on it).
func TestHealthEndpointServesValidDoc(t *testing.T) {
	plane := obs.NewPlane(nil)
	col := health.NewCollector(health.CollectorConfig{Period: 10 * time.Millisecond})
	col.Start()
	col.Stop() // at least one sample, then settle
	plane.SetHealthProvider(func() any { return health.BuildDoc(col, nil) })
	doc := getHealthDoc(t, plane)
	if !doc.Enabled || doc.Collector == nil || doc.Collector.Samples < 1 {
		t.Fatalf("enabled doc not served: %+v", doc)
	}

	bare := obs.NewPlane(nil)
	doc = getHealthDoc(t, bare)
	if doc.Enabled {
		t.Fatalf("bare plane claims health enabled: %+v", doc)
	}
	if doc.Runtime.GoVersion == "" {
		t.Fatalf("bare plane doc lacks runtime identity: %+v", doc)
	}
}

// getHealthDoc fetches and validates /api/health from a plane's handler.
func getHealthDoc(t *testing.T, plane *obs.Plane) health.Doc {
	t.Helper()
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/health status %d", resp.StatusCode)
	}
	doc, err := health.ValidateDoc(resp.Body)
	if err != nil {
		t.Fatalf("/api/health served an invalid document: %v", err)
	}
	return doc
}

// TestBrokerEmitZeroSubscribersDoesNotAllocate pins the disabled-plane
// guarantee: with no subscribers, Emit is a single atomic check and
// allocates nothing, even for events carrying a payload.
func TestBrokerEmitZeroSubscribersDoesNotAllocate(t *testing.T) {
	b := obs.NewBroker()
	ev := telemetry.Event{K: 7, Kind: "interval", Link: -1,
		Payload: telemetry.PayloadOf(map[string]float64{"deficiency": 0.5})}
	allocs := testing.AllocsPerRun(1000, func() { b.Emit(ev) })
	if allocs != 0 {
		t.Fatalf("Emit with zero subscribers allocates %.1f objects/op, want 0", allocs)
	}
}
