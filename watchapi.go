package rtmac

import (
	"fmt"
	"io"
	"math"

	"rtmac/internal/telemetry"
	"rtmac/internal/watch"
)

// SLOConfig declares a run's conformance objectives: what the watch engine
// (EnableWatch) holds the run to. Scenarios carry it in their optional "slo"
// section; programmatic callers set Config.SLO. Everything is optional — a
// nil SLOConfig means "the paper's contract": per-link targets equal to the
// feasibility-derived requirement vector q_i with the default miss budget.
type SLOConfig struct {
	// Targets overrides the per-link SLO targets, in delivered packets per
	// interval. Nil (or empty) defaults to the requirement vector q_i =
	// ρ_n·λ_n; when set it must have one entry per link.
	Targets []float64
	// Budget is the deadline-miss budget: the fraction of the target a link
	// may sustainably miss before the burn-rate detector fires. Zero selects
	// the default (0.1); must stay within [0, 1].
	Budget float64
}

func (c *SLOConfig) validate(links int) error {
	if len(c.Targets) != 0 && len(c.Targets) != links {
		return fmt.Errorf("slo: %d targets for %d links", len(c.Targets), links)
	}
	for i, q := range c.Targets {
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("slo: link %d target %v is not a finite non-negative rate", i, q)
		}
	}
	if !(c.Budget >= 0 && c.Budget <= 1) {
		return fmt.Errorf("slo: miss budget %v outside [0, 1]", c.Budget)
	}
	return nil
}

// WatchConfig configures Simulation.EnableWatch.
type WatchConfig struct {
	// Budget overrides the deadline-miss budget for this run, taking
	// precedence over the scenario's SLO section (the -slo-budget flag).
	// Zero keeps the scenario's (or default) budget.
	Budget float64
}

// WatchAlert is one SLO conformance transition reported by the watch engine:
// a detector started firing or a firing detector resolved. See
// docs/OBSERVABILITY.md for the detector catalog.
type WatchAlert struct {
	// Detector names the detector ("burn_rate", "delivery_cusum",
	// "debt_drift", "expiry_spike").
	Detector string
	// Severity is "warning" or "critical"; State is "firing" or "resolved".
	Severity string
	State    string
	// K is the interval of the transition, At its simulated time.
	K  int64
	At Time
	// Link is the subject link, or −1 for network-wide alerts; Scope is
	// "link", "neighborhood" (conflict-graph), or "network".
	Link  int
	Scope string
	// Value is the detector statistic at the transition, Threshold the level
	// it crossed, Window the intervals of evidence behind it.
	Value     float64
	Threshold float64
	Window    int64
	// Msg is the human-readable evidence line.
	Msg string
}

func (a WatchAlert) String() string { return watch.Alert(a).String() }

func alertsOut(in []watch.Alert) []WatchAlert {
	out := make([]WatchAlert, len(in))
	for i, a := range in {
		out[i] = WatchAlert(a)
	}
	return out
}

// Watch is a running simulation's SLO conformance plane: streaming detectors
// over the telemetry event stream that judge the run against its requirement
// vector — deadline-miss burn rate, delivery-ratio change points, debt drift
// (the observable face of the stability claim), and expired-backlog spikes.
type Watch struct {
	eng *watch.Engine
}

// EnableWatch attaches the SLO conformance engine. Call before Run; intervals
// already simulated are not judged. SLO targets come from Config.SLO when
// set, otherwise from the feasibility-derived requirement vector; the budget
// precedence is cfg.Budget > Config.SLO.Budget > default. Alert transitions
// are counted in the telemetry registry (rtmac_watch_*), surfaced as "alert"
// events on every attached consumer (streams, flight recorder, SSE tail),
// summarized into the run manifest, and served on /api/alerts when the obs
// plane is up. With no watch attached the simulation's hot path is untouched
// — the engine is pay-for-play like journeys and health.
func (s *Simulation) EnableWatch(cfg WatchConfig) (*Watch, error) {
	if s.watch != nil {
		return nil, fmt.Errorf("rtmac: watch plane already enabled")
	}
	targets := s.req
	budget := 0.0
	if s.slo != nil {
		if len(s.slo.Targets) > 0 {
			targets = s.slo.Targets
		}
		budget = s.slo.Budget
	}
	if cfg.Budget != 0 {
		budget = cfg.Budget
	}
	eng, err := watch.New(watch.Config{
		Links:    len(s.req),
		Required: targets,
		Budget:   budget,
		Registry: s.nw.Telemetry(),
		Output:   simFanout{s: s},
	})
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	s.addSink(eng)
	s.watch = &Watch{eng: eng}
	return s.watch, nil
}

// Count returns how many alerts have fired so far (resolutions not counted).
func (w *Watch) Count() int64 { return w.eng.Count() }

// Firing returns how many alerts are currently in the firing state.
func (w *Watch) Firing() int { return w.eng.FiringNow() }

// ByDetector returns the per-detector firing counts.
func (w *Watch) ByDetector() map[string]int64 { return w.eng.ByDetector() }

// Alerts returns the retained alert transitions in detection order (bounded;
// Count reports the true firing total).
func (w *Watch) Alerts() []WatchAlert { return alertsOut(w.eng.Alerts()) }

// WriteAlertsJSONL writes the retained alert transitions as JSON Lines, one
// alert per line — the artifact format `rtmacwatch -alerts` and the CI watch
// smoke job persist.
func (w *Watch) WriteAlertsJSONL(out io.Writer) error {
	return watch.WriteAlertsJSONL(out, w.eng.Alerts())
}

// alertBoard is the /api/alerts provider: a disabled marker when no watch
// plane is attached, the live conformance board otherwise. Reading s.watch
// from HTTP handlers is safe — EnableWatch is a pre-Run setup call.
func (s *Simulation) alertBoard() any {
	if s.watch == nil {
		return watch.Board{}
	}
	return s.watch.eng.Board()
}

// watchSummary feeds the run manifest.
func (s *Simulation) watchSummary() *telemetry.WatchSummary {
	if s.watch == nil {
		return nil
	}
	return s.watch.eng.Summary()
}
