package rtmac

import (
	"rtmac/internal/ledger"
	"rtmac/internal/obs"
	"rtmac/internal/telemetry"
)

// Observability is a live HTTP observability plane attached to a running
// simulation. It serves, on the address given to ServeObservability:
//
//	/             an auto-refreshing HTML dashboard
//	/healthz      a liveness probe
//	/metrics      the simulation's metric registry, Prometheus text format
//	/api/progress interval-level run progress as JSON
//	/events       the structured event stream as Server-Sent Events
//
// The plane is passive: with no HTTP clients connected it costs the run
// nothing beyond event construction, and SSE subscribers that fall behind
// drop events rather than stall the simulation.
type Observability struct {
	plane *obs.Plane
}

// ServeObservability starts an observability plane for this simulation on
// addr (e.g. ":8080", or "127.0.0.1:0" to pick a free port — read it back
// with Addr). plannedIntervals, when positive, sizes the run progress bar;
// pass the interval count you are about to Run. Call before Run so the event
// tail covers the whole run, and Close when done.
func (s *Simulation) ServeObservability(addr string, plannedIntervals int) (*Observability, error) {
	plane := obs.NewPlane(s.nw.Telemetry())
	if plannedIntervals > 0 {
		plane.Tracker.SetPlannedIntervals(int64(plannedIntervals))
	}
	s.addSink(planeSink{plane})
	// The provider reads s.journeys dynamically, so enabling journeys before
	// or after serving both work; the tracer's accessors are mutex-guarded
	// against the simulation goroutine.
	plane.SetLinksProvider(func() any { return s.linkBoard() })
	// Likewise dynamic: the /api/health document reflects whether a health
	// plane is attached at request time, and always carries the runtime
	// identity block for the dashboard header.
	plane.SetHealthProvider(func() any { return s.healthDoc() })
	// Also dynamic: /api/alerts reflects whether a watch engine is attached
	// at request time ({"enabled": false} otherwise), and the engine's board
	// accessor is mutex-guarded against the simulation goroutine.
	plane.SetAlertsProvider(func() any { return s.alertBoard() })
	if err := plane.Start(addr); err != nil {
		return nil, err
	}
	return &Observability{plane: plane}, nil
}

// LinkBoard is the /api/links document: per-link deadline-miss attribution,
// swap counts and debt timelines, as recorded by the journey tracer.
type LinkBoard struct {
	// Enabled reports whether a journey tracer is attached; without one the
	// board carries only the requirement vector.
	Enabled bool `json:"enabled"`
	// Sample is the tracer's packet sampling stride (1 = every packet).
	Sample int         `json:"sample,omitempty"`
	Total  Attribution `json:"total"`
	Links  []LinkEntry `json:"links"`
}

// LinkEntry is one link's row on the board.
type LinkEntry struct {
	Link        int         `json:"link"`
	Required    float64     `json:"required"`
	Attribution Attribution `json:"attribution"`
	SwapsUp     int64       `json:"swaps_up"`
	SwapsDown   int64       `json:"swaps_down"`
	// Debt is the link's retained debt timeline, oldest first.
	Debt []DebtPoint `json:"debt"`
}

// linkBoard snapshots the journey tracer into the /api/links document. Safe
// to call from HTTP handlers: it touches only the tracer's mutex-guarded
// accessors and the immutable requirement vector, never live protocol state.
func (s *Simulation) linkBoard() LinkBoard {
	board := LinkBoard{Links: make([]LinkEntry, len(s.req))}
	jt := s.journeys
	if jt != nil {
		board.Enabled = true
		board.Sample = jt.SampleEvery()
		board.Total = jt.Attribution()
	}
	for n := range board.Links {
		e := LinkEntry{Link: n, Required: s.req[n]}
		if jt != nil {
			e.Attribution, _ = jt.LinkAttribution(n)
			e.SwapsUp, e.SwapsDown, _ = jt.Swaps(n)
			e.Debt, _ = jt.Timeline(n)
		}
		board.Links[n] = e
	}
	return board
}

// ServeRunLedger attaches the run ledger at dir to the plane's /api/runs
// endpoint and /history page, plus /api/compare and the /compare page (the
// differential view of any two recorded runs). Each request re-reads the
// ledger, so records appended after the server starts — including this run's
// own, appended when it finishes — show up without a restart.
func (o *Observability) ServeRunLedger(dir string) error {
	store, err := ledger.Open(dir)
	if err != nil {
		return err
	}
	o.plane.SetRunsProvider(func() any { return store.HistoryDoc() })
	o.plane.SetCompareProvider(func(refA, refB string) any { return store.CompareDoc(refA, refB) })
	return nil
}

// Addr returns the bound listen address.
func (o *Observability) Addr() string { return o.plane.Addr() }

// Close shuts the HTTP server down, ending any open SSE streams.
func (o *Observability) Close() error { return o.plane.Close() }

// planeSink fans the simulation's event stream into the plane's SSE broker
// and folds interval boundaries into the run progress tracker.
type planeSink struct {
	plane *obs.Plane
}

func (p planeSink) Emit(ev telemetry.Event) {
	p.plane.Broker.Emit(ev)
	if ev.Kind == telemetry.EventInterval {
		p.plane.Tracker.IntervalsDone(ev.K + 1)
	}
}
