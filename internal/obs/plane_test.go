package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rtmac/internal/telemetry"
)

func newTestPlane(t *testing.T) (*Plane, *httptest.Server) {
	t.Helper()
	p := NewPlane(nil)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	return p, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthz(t *testing.T) {
	_, srv := newTestPlane(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func TestMetricsEndpointIsValidExposition(t *testing.T) {
	p, srv := newTestPlane(t)
	p.Registry.Counter("obs_test_total", "test counter").Add(7)
	p.Registry.Histogram("obs_test_delay", "", []float64{1, 10}).Observe(3)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	n, err := telemetry.ValidatePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	if n < 2 {
		t.Fatalf("only %d samples", n)
	}
}

func TestProgressEndpoint(t *testing.T) {
	p, srv := newTestPlane(t)
	p.Tracker.FigureStarted("fig3", "Deficiency vs arrival rate", 4)
	p.Tracker.JobCompleted("fig3")
	p.Tracker.JobCompleted("fig3")
	code, body := get(t, srv.URL+"/api/progress")
	if code != http.StatusOK {
		t.Fatalf("progress status %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if snap.TotalJobs != 4 || snap.DoneJobs != 2 {
		t.Fatalf("jobs %d/%d, want 2/4", snap.DoneJobs, snap.TotalJobs)
	}
	if len(snap.Figures) != 1 || snap.Figures[0].ID != "fig3" {
		t.Fatalf("figures: %+v", snap.Figures)
	}
}

func TestDashboardServed(t *testing.T) {
	_, srv := newTestPlane(t)
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "rtmac observability") {
		t.Fatalf("dashboard: %d", code)
	}
	if code, _ := get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path returned %d, want 404", code)
	}
}

func TestEventsSSEStreaming(t *testing.T) {
	p, srv := newTestPlane(t)
	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// Wait for the subscription before emitting, then stream a few events.
	deadline := time.Now().Add(2 * time.Second)
	for p.Broker.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go func() {
		for i := 0; i < 3; i++ {
			p.Broker.Emit(telemetry.Event{K: int64(i), Kind: "interval", Link: -1})
		}
	}()
	sc := bufio.NewScanner(resp.Body)
	var events []telemetry.Event
	for sc.Scan() && len(events) < 3 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 (scan err: %v)", len(events), sc.Err())
	}
	for i, ev := range events {
		if ev.K != int64(i) || ev.Kind != "interval" {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}
}

func TestBrokerZeroSubscribersIsNoop(t *testing.T) {
	b := NewBroker()
	// Emit with no subscribers must not block, panic, or retain anything.
	for i := 0; i < 100; i++ {
		b.Emit(telemetry.Event{K: int64(i), Payload: telemetry.PayloadOf(map[string]float64{"x": 1})})
	}
	ch, cancel := b.Subscribe(4)
	defer cancel()
	if len(ch) != 0 {
		t.Fatal("events from before subscription leaked in")
	}
}

func TestBrokerDropsOnSlowSubscriber(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe(2)
	defer cancel()
	for i := 0; i < 10; i++ { // nobody draining: must not block
		b.Emit(telemetry.Event{K: int64(i)})
	}
	if got := len(ch); got != 2 {
		t.Fatalf("buffered %d, want 2", got)
	}
}

func TestTrackerRateAndETA(t *testing.T) {
	tr := NewTracker()
	clock := time.Unix(1000, 0)
	tr.now = func() time.Time { return clock }
	tr.FigureStarted("fig5", "Unreliable links", 10)
	clock = clock.Add(5 * time.Second)
	for i := 0; i < 5; i++ {
		tr.JobCompleted("fig5")
	}
	snap := tr.Snapshot()
	if snap.ElapsedSec != 5 {
		t.Fatalf("elapsed %v", snap.ElapsedSec)
	}
	if snap.JobsPerSec != 1 {
		t.Fatalf("rate %v, want 1", snap.JobsPerSec)
	}
	if snap.ETASec != 5 {
		t.Fatalf("ETA %v, want 5", snap.ETASec)
	}
	for i := 0; i < 5; i++ {
		tr.JobCompleted("fig5")
	}
	tr.FigureFinished("fig5")
	snap = tr.Snapshot()
	if snap.ETASec != 0 {
		t.Fatalf("ETA after completion %v, want 0", snap.ETASec)
	}
	if !snap.Figures[0].Finished {
		t.Fatal("figure not marked finished")
	}
}

func TestTrackerConcurrentJobCompletion(t *testing.T) {
	tr := NewTracker()
	tr.FigureStarted("a", "", 400)
	tr.FigureStarted("b", "", 400)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.JobCompleted("a")
				tr.JobCompleted("b")
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap.DoneJobs != 800 {
		t.Fatalf("done %d, want 800", snap.DoneJobs)
	}
}

func TestPlaneStartAndClose(t *testing.T) {
	p := NewPlane(nil)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := p.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	code, _ := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz over real listener: %d", code)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
