// Package watch turns the telemetry event stream into live SLO conformance:
// it derives per-link service-level objectives from the paper's requirement
// vector q_i (the timely-throughput contract DB-DP must meet) and evaluates
// them online with streaming detectors — a multi-window EWMA burn rate on the
// deadline-miss budget, a CUSUM change-point detector on per-link delivery
// ratio, a windowed-regression debt-drift detector that operationalizes the
// positive-recurrence stability claim (per link, per conflict-graph
// neighborhood, and network-wide), and a frozen-baseline spike detector on
// the expired backlog.
//
// The engine implements telemetry.Sink, so it attaches anywhere a JSONL
// stream or the runtime monitor does, and ReplayJSONL runs the identical
// detectors over a recorded stream — `rtmacwatch` audits yesterday's run
// with exactly the code that watched the live one. Alert transitions are
// first-class "alert" telemetry events; because every detector is a
// deterministic function of the deterministic event stream, a fixed seed
// alerts identically run after run.
package watch

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Detector names, embeddable in Prometheus metric names ([a-z_]+).
const (
	// DetectorBurnRate is the multi-window EWMA deadline-miss burn rate: a
	// link fires when both its fast and slow EWMAs of delivered-per-interval
	// fall short of q_i by more than the configured miss budget while the
	// link carries positive debt.
	DetectorBurnRate = "burn_rate"
	// DetectorDeliveryCUSUM is the one-sided standardized CUSUM on per-link
	// delivery ratio (delivered/attempts): it localizes a change-point where
	// the channel turned worse than the link's own warmup baseline.
	DetectorDeliveryCUSUM = "delivery_cusum"
	// DetectorDebtDrift is the windowed least-squares slope on d⁺: sustained
	// positive drift is the observable face of a debt process that is not
	// positive recurrent (an infeasible requirement vector).
	DetectorDebtDrift = "debt_drift"
	// DetectorExpirySpike is the frozen-baseline robust z-score on the
	// network-wide expired backlog: it catches injected divergences (the
	// -perturb-* family) and load bursts the windowed detectors are too slow
	// for.
	DetectorExpirySpike = "expiry_spike"
)

// Alert severities and states.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
	StateFiring      = "firing"
	StateResolved    = "resolved"
)

// Alert scopes: the subject an alert talks about.
const (
	ScopeLink         = "link"
	ScopeNeighborhood = "neighborhood"
	ScopeNetwork      = "network"
)

// Numeric codes carried in the alert event's Fields, so a recorded stream
// round-trips the alert without string payloads (Fields is map[string]float64).
const (
	severityCodeWarning  = 1
	severityCodeCritical = 2
	stateCodeResolved    = 0
	stateCodeFiring      = 1
	scopeCodeLink        = 0
	scopeCodeNeighbor    = 1
	scopeCodeNetwork     = 2
)

// Alert is one SLO conformance transition: a detector started firing, or a
// firing detector resolved. The JSON shape is served verbatim on /api/alerts
// and written by `rtmacwatch -alerts`.
type Alert struct {
	// Detector names the detector (Detector* constants).
	Detector string `json:"detector"`
	// Severity is "warning" or "critical".
	Severity string `json:"severity"`
	// State is "firing" or "resolved".
	State string `json:"state"`
	// K is the interval the transition happened at, At its simulated time.
	K  int64    `json:"k"`
	At sim.Time `json:"t"`
	// Link is the subject link, or -1 for network-wide alerts. For
	// neighborhood-scoped alerts it is the lowest link in the neighborhood.
	Link int `json:"link"`
	// Scope is "link", "neighborhood", or "network".
	Scope string `json:"scope"`
	// Value is the detector statistic at the transition, Threshold the level
	// it crossed, Window the intervals of evidence behind it.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Window    int64   `json:"window"`
	// Msg is the human-readable evidence line.
	Msg string `json:"msg"`
}

// Event renders the alert as a telemetry event using the caller's Fields map
// (the engine reuses one scratch map per emission; offline tools may pass a
// fresh one).
func (a Alert) Event(fields map[string]float64) telemetry.Event {
	sev := float64(severityCodeWarning)
	if a.Severity == SeverityCritical {
		sev = severityCodeCritical
	}
	st := float64(stateCodeResolved)
	if a.State == StateFiring {
		st = stateCodeFiring
	}
	scope := float64(scopeCodeLink)
	switch a.Scope {
	case ScopeNeighborhood:
		scope = scopeCodeNeighbor
	case ScopeNetwork:
		scope = scopeCodeNetwork
	}
	fields["severity"] = sev
	fields["state"] = st
	fields["value"] = a.Value
	fields["threshold"] = a.Threshold
	fields["window"] = float64(a.Window)
	fields["scope"] = scope
	return telemetry.Event{
		K: a.K, At: a.At, Link: a.Link,
		Kind: telemetry.EventAlert, Check: a.Detector, Msg: a.Msg,
		Fields: fields,
	}
}

func (a Alert) String() string {
	return fmt.Sprintf("k=%d t=%v link=%d %s %s [%s]: %s",
		a.K, a.At, a.Link, a.Detector, a.State, a.Severity, a.Msg)
}

// Config assembles an Engine. Only Links and Required are mandatory; a zero
// Budget takes its documented default. The detectors' own tuning is fixed
// (see the constants below).
type Config struct {
	// Links is N, the number of links in the watched network.
	Links int
	// Required is the per-link requirement vector q_i in delivered packets
	// per interval (delivery ratio × arrival rate) — the SLO targets. Links
	// with q_i = 0 are exempt from the burn-rate SLO but still watched by
	// the change-point and drift detectors.
	Required []float64
	// Budget is the fraction of q_i a link may miss before the burn-rate
	// detector considers the deadline-miss budget consumed (default 0.1,
	// i.e. sustained delivery below 0.9·q_i burns the budget).
	Budget float64
	// Registry, when non-nil, receives the rtmac_watch_* alert counters.
	Registry *telemetry.Registry
	// Output, when non-nil, receives one "alert" event per transition.
	Output telemetry.Sink
}

// Detector tuning. These belong to the instruments, not to a run: each value
// is argued below, and the debt-drift detector in particular is the
// recurrence probe whose verdict must not move with per-run tuning.
const (
	// burnFastWindow/burnSlowWindow are the EWMA horizons in intervals; both
	// must agree before burn_rate fires, the classic multi-window guard
	// against transient wobbles. burnDebtFloor (packets) additionally
	// requires real accumulated debt. burnMinShortfall (packets/interval)
	// floors the absolute shortfall the budget allows: for a low-rate link
	// (small q_i) a purely relative budget sinks below the EWMA's own
	// sampling noise, and a detector should never be armed tighter than its
	// estimator's error.
	burnFastWindow   int     = 200
	burnSlowWindow   int     = 1000
	burnDebtFloor    float64 = 2
	burnMinShortfall float64 = 0.05
	// cusumBatch is how many intervals pool into one delivery-ratio sample:
	// batching averages out the near-Bernoulli per-interval ratio so the
	// CUSUM sees approximately Gaussian evidence. cusumWarmup is how many
	// batches establish the frozen baseline; cusumAllowance is the slack k
	// in standard-deviation units (1 — a warmup baseline is an estimate, and
	// the allowance must absorb its error); cusumThreshold the decision
	// level h.
	cusumBatch     int     = 50
	cusumWarmup    int     = 20
	cusumAllowance float64 = 1
	cusumThreshold float64 = 8
	// driftWindow is the non-overlapping regression window in intervals;
	// driftSlope the firing slope in packets/interval; driftDebtFloor the
	// minimum window-mean d⁺. driftHotWindows consecutive windows — each
	// with slope over the threshold AND a higher mean than the one before —
	// are required to fire: a requirement at the capacity boundary turns d⁺
	// into a near-critical reflected random walk whose excursions show
	// transiently steep slopes, and only monotone growth sustained across
	// windows separates an infeasible vector from a tight feasible one (4 —
	// long enough that the ramp-in from an empty network, which also grows
	// monotonically until it plateaus, does not fire). driftGrowth
	// additionally demands the firing window's mean exceed this multiple of
	// the mean just before the hot run began — an excursion crawls, an
	// infeasible debt process multiplies.
	driftWindow     int     = 500
	driftSlope      float64 = 0.025
	driftDebtFloor  float64 = 5
	driftHotWindows int     = 4
	driftGrowth     float64 = 1.5
	// spikeWarmup freezes the expired-backlog baseline after this many
	// intervals; spikeSigma is the z-score firing level.
	spikeWarmup int     = 300
	spikeSigma  float64 = 8
	// maxRetained bounds the alert transitions kept in memory (the counters
	// keep exact totals beyond it).
	maxRetained = 256
)

// Engine is the streaming conformance engine. It implements telemetry.Sink:
// feed it the live event stream (the simulation fan-out) or a recorded one
// (ReplayJSONL) and read the verdict from Count/Alerts/Board/Summary.
//
// Concurrency: Emit must be called from one goroutine (the simulation or
// replay loop); the accessors are safe to call concurrently with Emit, which
// is what the /api/alerts handler does against a live run.
type Engine struct {
	cfg Config

	// Per-interval accumulation, touched only by the Emit goroutine.
	delivered []int
	attempts  []int
	edges     [][2]int
	wired     bool // neighborhood drift series built

	// mu guards everything below: detector state advanced per interval and
	// the alert ledger read by concurrent accessors.
	mu        sync.Mutex
	intervals int64
	links     []linkState
	series    []*driftSeries
	spike     spikeState

	count      int64
	firingNow  int
	retained   []Alert
	byDetector map[string]int64

	total       *telemetry.Counter
	perDetector map[string]*telemetry.Counter

	// alertFields is the reused scratch Fields map for alert events (fixed
	// key set; sinks must not retain it, per the Sink contract).
	alertFields map[string]float64
}

// linkState is one link's detector state.
type linkState struct {
	q    float64
	debt float64 // shadow Eq. 1 recursion, truncated at zero

	ewmaFast   float64
	ewmaSlow   float64
	burnFiring bool

	csBatchN    int   // intervals pooled into the current batch
	csBatchD    int   // delivered in the current batch
	csBatchA    int   // attempts in the current batch
	csCount     int64 // warmup batch count (Welford)
	csMean      float64
	csM2        float64
	csSamples   int64 // post-warmup batches
	cusum       float64
	cusumFiring bool
}

// spikeState is the network-wide expired-backlog baseline.
type spikeState struct {
	count  int64
	mean   float64
	m2     float64
	firing bool
}

// driftSeries is one d⁺ time series under windowed-regression watch: a single
// link, a closed conflict-graph neighborhood, or the whole network.
type driftSeries struct {
	link    int    // subject link; -1 for the network series
	scope   string // ScopeLink / ScopeNeighborhood / ScopeNetwork
	members []int  // neighborhood member links; nil for link/network scope

	n        int
	sumY     float64
	sumIY    float64
	hot      int     // consecutive hot windows (slope over threshold, mean rising)
	prevMean float64 // previous window's mean d⁺, for the monotone-growth guard
	baseMean float64 // mean just before the hot run began, for the growth guard

	firing bool
}

// New validates the configuration, fills the Budget default, and builds an engine with
// one drift series per link plus the network series (neighborhood series
// self-assemble from the stream's conflict events at the first interval).
func New(cfg Config) (*Engine, error) {
	if cfg.Links <= 0 {
		return nil, fmt.Errorf("watch: need a positive link count, got %d", cfg.Links)
	}
	if len(cfg.Required) != cfg.Links {
		return nil, fmt.Errorf("watch: requirement vector has %d entries for %d links",
			len(cfg.Required), cfg.Links)
	}
	for i, q := range cfg.Required {
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return nil, fmt.Errorf("watch: link %d requirement %v is not a finite non-negative rate", i, q)
		}
	}
	if !(cfg.Budget >= 0 && cfg.Budget <= 1) {
		return nil, fmt.Errorf("watch: miss budget %v outside [0,1]", cfg.Budget)
	}
	if cfg.Budget == 0 {
		cfg.Budget = 0.1
	}
	e := &Engine{
		cfg:         cfg,
		delivered:   make([]int, cfg.Links),
		attempts:    make([]int, cfg.Links),
		links:       make([]linkState, cfg.Links),
		byDetector:  make(map[string]int64),
		perDetector: make(map[string]*telemetry.Counter),
		alertFields: make(map[string]float64, 6),
	}
	for i := range e.links {
		q := cfg.Required[i]
		// The burn EWMAs start at the target itself: a healthy link pulls
		// them up toward its (higher) arrival rate during priming, a
		// starved one pulls them down toward the truth.
		e.links[i] = linkState{q: q, ewmaFast: q, ewmaSlow: q}
		e.series = append(e.series, &driftSeries{link: i, scope: ScopeLink})
	}
	e.series = append(e.series, &driftSeries{link: -1, scope: ScopeNetwork})
	if cfg.Registry != nil {
		e.total = cfg.Registry.Counter("rtmac_watch_alerts_total",
			"SLO alerts fired by the watch engine, all detectors")
		for _, d := range []string{DetectorBurnRate, DetectorDeliveryCUSUM,
			DetectorDebtDrift, DetectorExpirySpike} {
			e.perDetector[d] = cfg.Registry.Counter("rtmac_watch_alerts_total_"+d,
				fmt.Sprintf("SLO alerts fired by the %s detector", d))
		}
	}
	return e, nil
}

// Emit implements telemetry.Sink. Transmissions and conflict edges accumulate
// without locking (hot path); the detectors advance once per interval event.
// Alert and violation events pass through untouched, so the engine can share
// a fan-out with its own output sink and the runtime monitor.
func (e *Engine) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EventTx:
		if ev.Link < 0 || ev.Link >= e.cfg.Links || ev.Fields["empty"] != 0 {
			return
		}
		e.attempts[ev.Link]++
		if ev.Fields["outcome"] == 0 { // medium.Delivered
			e.delivered[ev.Link]++
		}
	case telemetry.EventConflict:
		peer := int(ev.Fields["peer"])
		if ev.Link < 0 || ev.Link >= e.cfg.Links || peer < 0 || peer >= e.cfg.Links {
			return
		}
		e.edges = append(e.edges, [2]int{ev.Link, peer})
	case telemetry.EventInterval:
		e.endInterval(ev)
	}
}

// endInterval advances every detector over the completed interval and resets
// the per-interval accumulators.
func (e *Engine) endInterval(ev telemetry.Event) {
	if !e.wired {
		e.wireNeighborhoods()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.intervals++
	k, at := ev.K, ev.At

	// Shadow debt first (the drift detector reads the post-update vector),
	// then the per-link detectors.
	total := 0.0
	for i := range e.links {
		st := &e.links[i]
		st.debt += st.q - float64(e.delivered[i])
		if st.debt < 0 {
			st.debt = 0
		}
		total += st.debt
	}
	for i := range e.links {
		e.observeBurn(i, k, at)
		e.observeCUSUM(i, k, at)
	}
	for _, s := range e.series {
		e.observeDrift(s, k, at, total)
	}
	e.observeSpike(ev.Fields["expired"], k, at)

	for i := range e.delivered {
		e.delivered[i] = 0
		e.attempts[i] = 0
	}
}

// wireNeighborhoods builds one drift series per distinct closed neighborhood
// of the conflict graph announced by the stream's "conflict" events. Complete
// graphs emit no conflict events, so they get no neighborhood series — the
// network series already covers the single all-links clique.
func (e *Engine) wireNeighborhoods() {
	e.wired = true
	if len(e.edges) == 0 {
		return
	}
	adj := make(map[int]map[int]bool, e.cfg.Links)
	for _, edge := range e.edges {
		a, b := edge[0], edge[1]
		if adj[a] == nil {
			adj[a] = make(map[int]bool)
		}
		if adj[b] == nil {
			adj[b] = make(map[int]bool)
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	seen := make(map[string]bool)
	added := make([]*driftSeries, 0, len(adj))
	for l := 0; l < e.cfg.Links; l++ {
		if adj[l] == nil {
			continue
		}
		members := make([]int, 0, len(adj[l])+1)
		members = append(members, l)
		for peer := range adj[l] {
			members = append(members, peer)
		}
		sort.Ints(members)
		key := fmt.Sprint(members)
		if seen[key] {
			continue
		}
		seen[key] = true
		added = append(added, &driftSeries{
			link: members[0], scope: ScopeNeighborhood, members: members,
		})
	}
	e.mu.Lock()
	e.series = append(e.series, added...)
	e.mu.Unlock()
}

// record ledgers one alert transition and emits it as an "alert" event.
// Callers hold e.mu.
func (e *Engine) record(a Alert) {
	if a.State == StateFiring {
		e.count++
		e.firingNow++
		e.byDetector[a.Detector]++
		if e.total != nil {
			e.total.Inc()
		}
		if c, ok := e.perDetector[a.Detector]; ok {
			c.Inc()
		}
	} else if e.firingNow > 0 {
		e.firingNow--
	}
	if len(e.retained) < maxRetained {
		e.retained = append(e.retained, a)
	}
	if e.cfg.Output != nil {
		e.cfg.Output.Emit(a.Event(e.alertFields))
	}
}

// Count returns how many alerts fired (firing transitions; resolutions are
// not counted), including ones beyond the retention bound.
func (e *Engine) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// FiringNow returns how many alerts are currently in the firing state.
func (e *Engine) FiringNow() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firingNow
}

// Intervals returns how many interval events the engine has consumed.
func (e *Engine) Intervals() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.intervals
}

// Alerts returns the retained alert transitions in detection order (at most
// maxRetained; Count reports the true firing total).
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Alert(nil), e.retained...)
}

// ByDetector returns the per-detector firing counts.
func (e *Engine) ByDetector() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int64, len(e.byDetector))
	for d, n := range e.byDetector {
		out[d] = n
	}
	return out
}

// Summary condenses the verdict for the run manifest and ledger.
func (e *Engine) Summary() *telemetry.WatchSummary {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &telemetry.WatchSummary{Alerts: e.count, Firing: e.firingNow}
	if len(e.byDetector) > 0 {
		s.ByDetector = make(map[string]int64, len(e.byDetector))
		for d, n := range e.byDetector {
			s.ByDetector[d] = n
		}
	}
	return s
}

// Board is the /api/alerts document: the live conformance verdict plus the
// recent transitions, safe to serialize while the run continues.
type Board struct {
	Enabled   bool    `json:"enabled"`
	Links     int     `json:"links"`
	Budget    float64 `json:"budget"`
	Intervals int64   `json:"intervals"`
	// Alerts counts firing transitions, Firing the alerts still firing.
	Alerts     int64            `json:"alerts"`
	Firing     int              `json:"firing"`
	ByDetector map[string]int64 `json:"by_detector,omitempty"`
	Recent     []Alert          `json:"recent,omitempty"`
}

// Board snapshots the engine for the HTTP plane and dashboard.
func (e *Engine) Board() Board {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := Board{
		Enabled:   true,
		Links:     e.cfg.Links,
		Budget:    e.cfg.Budget,
		Intervals: e.intervals,
		Alerts:    e.count,
		Firing:    e.firingNow,
		Recent:    append([]Alert(nil), e.retained...),
	}
	if len(e.byDetector) > 0 {
		b.ByDetector = make(map[string]int64, len(e.byDetector))
		for d, n := range e.byDetector {
			b.ByDetector[d] = n
		}
	}
	return b
}

// Tally accumulates conformance verdicts across many engines — the figures
// pipeline runs one engine per (scenario, seed) job on parallel workers and
// merges them here.
type Tally struct {
	mu         sync.Mutex
	runs       int64
	alerts     int64
	firing     int
	byDetector map[string]int64
}

// Merge folds one finished engine's verdict into the tally.
func (t *Tally) Merge(e *Engine) {
	s := e.Summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	t.alerts += s.Alerts
	t.firing += s.Firing
	for d, n := range s.ByDetector {
		if t.byDetector == nil {
			t.byDetector = make(map[string]int64)
		}
		t.byDetector[d] += n
	}
}

// Runs returns how many engines were merged.
func (t *Tally) Runs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runs
}

// Alerts returns the total firing transitions across merged engines.
func (t *Tally) Alerts() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alerts
}

// Summary condenses the cross-run verdict in manifest form.
func (t *Tally) Summary() *telemetry.WatchSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &telemetry.WatchSummary{Alerts: t.alerts, Firing: t.firing}
	if len(t.byDetector) > 0 {
		s.ByDetector = make(map[string]int64, len(t.byDetector))
		for d, n := range t.byDetector {
			s.ByDetector[d] = n
		}
	}
	return s
}

var _ telemetry.Sink = (*Engine)(nil)
