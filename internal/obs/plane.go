package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"time"

	"rtmac/internal/telemetry"
)

// Plane bundles the HTTP observability endpoints around one telemetry
// registry, one progress tracker and one event broker:
//
//	/             embedded auto-refreshing HTML dashboard
//	/healthz      liveness probe, returns "ok"
//	/metrics      Prometheus text exposition of the registry
//	/api/progress ProgressSnapshot as JSON
//	/events       Server-Sent Events tail of the telemetry event stream
//
// Construct with NewPlane, then either Start it on a listen address or mount
// Handler() under an existing server (tests use httptest).
type Plane struct {
	Registry *telemetry.Registry
	Tracker  *Tracker
	Broker   *Broker

	srv *http.Server
	ln  net.Listener
	// links, when set, produces the /api/links document (per-link miss
	// attribution and debt timelines). The provider must be safe to call
	// concurrently with the simulation; obs stays decoupled from the journey
	// package by treating the document as opaque JSON-marshalable data.
	links func() any
	// runs, when set, produces the /api/runs document (the run-ledger
	// history: past records and cross-run metric trajectories). Like links,
	// the document is opaque JSON so obs stays decoupled from the ledger.
	runs func() any
	// health, when set, produces the /api/health document (runtime identity,
	// GC/scheduler telemetry, watchdog verdict, profile-ring state). Opaque
	// JSON again, so obs stays decoupled from internal/health.
	health func() any
	// compare, when set, produces the /api/compare document for two ledger
	// references (the differential view of two recorded runs). Opaque JSON,
	// decoupling obs from the ledger's diff schema.
	compare func(refA, refB string) any
	// alerts, when set, produces the /api/alerts document (the watch
	// engine's live SLO conformance board: firing/resolved transitions and
	// per-detector counts). Opaque JSON, decoupling obs from internal/watch.
	alerts func() any
}

// SetLinksProvider installs the /api/links document source. A nil provider
// (or none) makes the endpoint answer 404.
func (p *Plane) SetLinksProvider(fn func() any) { p.links = fn }

// SetRunsProvider installs the /api/runs document source. A nil provider
// (or none) makes the endpoint answer 404.
func (p *Plane) SetRunsProvider(fn func() any) { p.runs = fn }

// SetCompareProvider installs the /api/compare document source. The provider
// receives the two run references from the request's a= and b= query
// parameters (defaulting to latest~1 and latest). A nil provider (or none)
// makes the endpoint answer 404.
func (p *Plane) SetCompareProvider(fn func(refA, refB string) any) { p.compare = fn }

// SetAlertsProvider installs the /api/alerts document source. A nil provider
// (or none) makes the endpoint answer 404.
func (p *Plane) SetAlertsProvider(fn func() any) { p.alerts = fn }

// SetHealthProvider installs the /api/health document source. Without one
// the endpoint serves a minimal {"enabled": false} document — unlike links
// and runs it never 404s, because the dashboard header polls it for the
// runtime identity block regardless of whether a health plane is attached.
func (p *Plane) SetHealthProvider(fn func() any) { p.health = fn }

// NewPlane builds a plane around reg (a fresh registry if nil) with a new
// tracker and broker.
func NewPlane(reg *telemetry.Registry) *Plane {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Plane{Registry: reg, Tracker: NewTracker(), Broker: NewBroker()}
}

// Handler returns the plane's route table.
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", p.handleDashboard)
	mux.HandleFunc("/healthz", p.handleHealthz)
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/api/progress", p.handleProgress)
	mux.HandleFunc("/api/links", p.handleLinks)
	mux.HandleFunc("/api/runs", p.handleRuns)
	mux.HandleFunc("/api/health", p.handleHealth)
	mux.HandleFunc("/api/alerts", p.handleAlerts)
	mux.HandleFunc("/api/compare", p.handleCompare)
	mux.HandleFunc("/history", p.handleHistory)
	mux.HandleFunc("/compare", p.handleComparePage)
	mux.HandleFunc("/events", p.handleEvents)
	// The standard pprof endpoints, mounted explicitly because the plane uses
	// its own mux rather than http.DefaultServeMux. /debug/pprof/profile
	// shares the process CPU profiler with -cpuprofile; whichever starts
	// second gets an error, not a corrupt profile.
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Start listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves in a
// background goroutine until Close.
func (p *Plane) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	p.ln = ln
	p.srv = &http.Server{Handler: p.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = p.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address, useful with ":0".
func (p *Plane) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Close shuts the server down, waiting briefly for in-flight requests. SSE
// streams are request-scoped and end when their client context is cancelled
// by the shutdown.
func (p *Plane) Close() error {
	if p.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if err != nil {
		err = p.srv.Close()
	}
	p.srv = nil
	p.ln = nil
	return err
}

func (p *Plane) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (p *Plane) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := p.Registry.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (p *Plane) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.Tracker.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (p *Plane) handleLinks(w http.ResponseWriter, r *http.Request) {
	if p.links == nil {
		http.Error(w, "no link board attached (run with journeys enabled)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.links()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (p *Plane) handleRuns(w http.ResponseWriter, _ *http.Request) {
	if p.runs == nil {
		http.Error(w, "no run ledger attached (run with -ledger DIR)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.runs()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (p *Plane) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var doc any
	if p.health != nil {
		doc = p.health()
	} else {
		// No provider: still identify the process so the dashboard header
		// works on bare planes (tests, embedders).
		doc = struct {
			Enabled bool                   `json:"enabled"`
			Runtime telemetry.BuildRuntime `json:"runtime"`
		}{Runtime: telemetry.RuntimeInfo()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (p *Plane) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	if p.alerts == nil {
		http.Error(w, "no watch engine attached (run with -watch)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.alerts()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (p *Plane) handleCompare(w http.ResponseWriter, r *http.Request) {
	if p.compare == nil {
		http.Error(w, "no run ledger attached (run with -ledger DIR)", http.StatusNotFound)
		return
	}
	refA, refB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if refA == "" {
		refA = "latest~1"
	}
	if refB == "" {
		refB = "latest"
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.compare(refA, refB)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (p *Plane) handleHistory(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, historyHTML)
}

func (p *Plane) handleComparePage(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, compareHTML)
}

func (p *Plane) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	ch, cancel := p.Broker.Subscribe(256)
	defer cancel()
	fmt.Fprint(w, ": stream open\n\n")
	fl.Flush()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case data := <-ch:
			fmt.Fprintf(w, "data: %s\n\n", data)
			fl.Flush()
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}

func (p *Plane) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}
