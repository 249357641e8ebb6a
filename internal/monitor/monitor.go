// Package monitor watches a running (or recorded) simulation for violations
// of the paper's structural guarantees — σ(k) stays a bijection on {1..N}
// (Proposition 1's premise), at most one uniformly-drawn adjacent swap per
// interval (Algorithm 2, Remark 6 generalization), collision-freedom of the
// DP family, Eq. 1 debt bookkeeping, and airtime conservation on the shared
// channel. Violations surface three ways: as "violation" events on an output
// sink, as rtmac_monitor_* registry counters, and — in Strict mode — as a
// sticky error that fails the run at the end of the offending interval.
//
// A live run feeds the monitor typed records in-process: Monitor implements
// the interval loop's probe interface (mac.Probe), so no event is built for
// it. Recorded streams go through Emit, the one decoder from
// telemetry.Event into the same handlers, so `rtmacsim -check` audits
// yesterday's JSONL dump with exactly the code that guarded the live run.
package monitor

import (
	"fmt"

	"rtmac/internal/mac"
	"rtmac/internal/medium"
	"rtmac/internal/perm"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Violation is one invariant breach.
type Violation struct {
	// Check names the checker that fired (e.g. "collision_free").
	Check string
	// K is the interval the violated evidence belongs to.
	K int64
	// At is the simulated time of the triggering event.
	At sim.Time
	// Link is the link concerned, or -1 for network-wide violations.
	Link int
	// Msg is the human-readable detail.
	Msg string
	// Fields carries the checker-specific numeric payload.
	Fields map[string]float64
}

// Event renders the violation as a telemetry event for sinks and streams,
// with Fields converted to a payload of its own.
func (v Violation) Event() telemetry.Event {
	return telemetry.Event{
		K: v.K, At: v.At, Link: v.Link,
		Kind: telemetry.EventViolation, Check: v.Check, Msg: v.Msg,
		Payload: telemetry.PayloadOf(v.Fields),
	}
}

func (v Violation) String() string {
	return fmt.Sprintf("k=%d t=%v link=%d %s: %s", v.K, v.At, v.Link, v.Check, v.Msg)
}

// Reporter receives violations from a checker.
type Reporter func(Violation)

// The checker names, as they appear in violations and metric names; each
// matches [a-z_]+ so it can be embedded in a Prometheus metric name.
const (
	checkPermutation = "permutation_valid"
	checkSwap        = "single_adjacent_swap"
	checkDebt        = "debt_sane"
	checkAirtime     = "airtime_conserved"
	checkCollision   = "collision_free"
)

// Config assembles a Monitor.
type Config struct {
	// Links is N, the number of links in the monitored network.
	Links int
	// Interval is the interval length T in simulated time; the airtime
	// checker needs it to place transmissions inside their interval.
	Interval sim.Time
	// CollisionFree enables the collision_free checker — set it for the
	// protocols the paper proves collision-free (DP/DB-DP, and the other
	// deterministic schedules: LDF, TDMA, frame-based CSMA).
	CollisionFree bool
	// SwapPairs is the number of swap draws Algorithm 2 permits per interval
	// (1, or m under the Remark 6 extension). Zero means 1.
	SwapPairs int
	// Conflicts is the channel's conflict graph; the airtime checker only
	// flags overlapping transmissions on *conflicting* links. Nil means the
	// fully-interfering channel (every pair conflicts).
	Conflicts *medium.Graph
	// Strict makes the first violation sticky: Err returns non-nil from then
	// on, and a network wired through SetIntervalCheck fails its run at the
	// end of the offending interval.
	Strict bool
	// Registry, when non-nil, receives the monitor's violation counters and
	// drift gauges.
	Registry *telemetry.Registry
	// Output, when non-nil, receives one "violation" event per breach (in
	// addition to the retained Violations slice).
	Output telemetry.Sink
}

// maxRetained bounds the violations kept in memory; the counters keep exact
// totals beyond it.
const maxRetained = 256

// Monitor runs the five checkers over the interval loop's records. It is a
// probe of the loop (mac.Probe: Tx, Swap, Debt and EndInterval; the records
// no check reads fall to the embedded NopProbe) and a telemetry.Sink (Emit)
// for recorded streams.
type Monitor struct {
	mac.NopProbe
	perm    *permutationValid
	swaps   *singleAdjacentSwap
	debt    *debtSane
	airtime *airtimeConserved
	// collisionFree arms the collision_free check.
	collisionFree bool

	// reporter is m.report bound once: a method value built per record
	// would allocate.
	reporter   Reporter
	strict     bool
	output     telemetry.Sink
	violations []Violation
	count      int64
	err        error

	total    *telemetry.Counter
	perCheck map[string]*telemetry.Counter
}

// New validates the configuration and builds a monitor running every
// checker the configuration arms.
func New(cfg Config) (*Monitor, error) {
	if cfg.Links <= 0 {
		return nil, fmt.Errorf("monitor: need a positive link count, got %d", cfg.Links)
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("monitor: need a positive interval length, got %v", cfg.Interval)
	}
	pairs := cfg.SwapPairs
	if pairs == 0 {
		pairs = 1
	}
	if pairs < 0 {
		return nil, fmt.Errorf("monitor: negative swap pair count %d", pairs)
	}
	m := &Monitor{
		perm:          newPermutationValid(cfg.Links),
		swaps:         newSingleAdjacentSwap(cfg.Links, pairs, cfg.Registry),
		debt:          newDebtSane(cfg.Links, cfg.Registry),
		airtime:       newAirtimeConserved(cfg.Interval, cfg.Conflicts),
		collisionFree: cfg.CollisionFree,
		strict:        cfg.Strict,
		output:        cfg.Output,
		perCheck:      make(map[string]*telemetry.Counter),
	}
	m.reporter = m.report
	if cfg.Registry != nil {
		m.total = cfg.Registry.Counter("rtmac_monitor_violations_total",
			"invariant violations detected by the runtime monitor, all checks")
		checks := []string{checkPermutation, checkSwap, checkDebt, checkAirtime}
		if cfg.CollisionFree {
			checks = append(checks, checkCollision)
		}
		for _, name := range checks {
			m.perCheck[name] = cfg.Registry.Counter(
				"rtmac_monitor_violations_total_"+name,
				fmt.Sprintf("invariant violations detected by the %s check", name))
		}
	}
	return m, nil
}

// Tx implements mac.Probe.
func (m *Monitor) Tx(k int64, tx medium.Transmission, outcome medium.Outcome) {
	m.tx(k, tx.Link, tx.Start, tx.End, tx.Empty, outcome == medium.Collided)
}

func (m *Monitor) tx(k int64, link int, start, end sim.Time, empty, isCollided bool) {
	m.airtime.tx(k, link, start, end, isCollided)
	if m.collisionFree && isCollided {
		collided(k, link, start, end, empty, m.reporter)
	}
}

// Swap implements mac.Probe.
func (m *Monitor) Swap(k int64, at sim.Time, pos, down, up int, accepted bool) {
	m.perm.swap(k, pos, down, up, accepted)
	m.swaps.swap(k, at, pos, m.reporter)
}

// Debt implements mac.Probe.
func (m *Monitor) Debt(k int64, _ sim.Time, _ []float64, _, mean float64, _ int) {
	m.debt.debt(k, mean)
}

// EndInterval implements mac.Probe.
func (m *Monitor) EndInterval(k int64, end sim.Time, _, served, _ int, prio perm.Permutation) {
	m.interval(k, end, float64(served))
	if prio != nil {
		m.perm.prio(k, end, prio, m.reporter)
	}
}

func (m *Monitor) interval(k int64, end sim.Time, served float64) {
	m.swaps.endInterval(k, end, m.reporter)
	m.debt.endInterval(k, end, served, m.reporter)
	m.airtime.endInterval(k, m.reporter)
}

// Emit implements telemetry.Sink: it decodes a recorded event into the
// handlers the typed records reach and ignores kinds no check reads.
// Violation events emitted by this monitor itself pass through unchecked,
// so the monitor can share a fan-out with its own output sink.
func (m *Monitor) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EventTx:
		dur := sim.Time(ev.Value("dur"))
		m.tx(ev.K, ev.Link, ev.At-dur, ev.At, ev.Value("empty") != 0, ev.Value("outcome") == outcomeCollided)
	case telemetry.EventSwap:
		m.Swap(ev.K, ev.At, int(ev.Value("pos")), int(ev.Value("down")), int(ev.Value("up")), ev.Value("accepted") == 1)
	case telemetry.EventDebt:
		m.debt.debt(ev.K, ev.Value("mean"))
	case telemetry.EventInterval:
		m.interval(ev.K, ev.At, ev.Value("served"))
	case telemetry.EventPriority:
		if prio, ok := m.perm.decode(ev, m.reporter); ok {
			m.perm.prio(ev.K, ev.At, prio, m.reporter)
		} else {
			m.perm.reset()
		}
	}
}

func (m *Monitor) report(v Violation) {
	m.count++
	if len(m.violations) < maxRetained {
		m.violations = append(m.violations, v)
	}
	if m.total != nil {
		m.total.Inc()
	}
	if c, ok := m.perCheck[v.Check]; ok {
		c.Inc()
	}
	if m.strict && m.err == nil {
		m.err = fmt.Errorf("monitor: %s", v)
	}
	if m.output != nil {
		m.output.Emit(v.Event())
	}
}

// Count returns the total number of violations observed, including ones
// beyond the retention bound.
func (m *Monitor) Count() int64 { return m.count }

// Violations returns the retained violations in detection order (at most
// 256; Count reports the true total).
func (m *Monitor) Violations() []Violation {
	return append([]Violation(nil), m.violations...)
}

// Err returns the sticky first-violation error in Strict mode, nil otherwise
// (and always nil while no violation has occurred).
func (m *Monitor) Err() error { return m.err }

// Audit replays a recorded event stream through a fresh monitor built from
// cfg and returns every violation found — the offline twin of the online
// monitor, used by `rtmacsim -check`.
func Audit(events []telemetry.Event, cfg Config) ([]Violation, error) {
	cfg.Strict = false
	cfg.Output = nil
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		m.Emit(ev)
	}
	return m.Violations(), nil
}

// InferConfig reconstructs the monitoring configuration from a recorded
// stream: N from the widest link index (and prio vectors), T from the first
// interval event's boundary time, collision-freedom from the presence of
// swap/prio events (only the DP family emits them), and the per-interval
// swap allowance from the largest draw count actually observed is NOT used —
// offline audits cannot distinguish a legitimate Remark-6 m from a forged
// extra draw, so the allowance defaults to the loosest legal value N/2 and
// the structural checks (range, distinctness, non-adjacency, σ evolution)
// carry the audit.
func InferConfig(events []telemetry.Event) (Config, error) {
	if len(events) == 0 {
		return Config{}, fmt.Errorf("monitor: no events to infer a configuration from")
	}
	links := 0
	var interval sim.Time
	dpFamily := false
	var edges [][2]int
	for _, ev := range events {
		if ev.Link+1 > links {
			links = ev.Link + 1
		}
		switch ev.Kind {
		case telemetry.EventSwap, telemetry.EventPriority:
			dpFamily = true
			if n := ev.Payload.Len(); ev.Kind == telemetry.EventPriority && n > links {
				links = n
			}
		case telemetry.EventInterval:
			if interval == 0 && ev.At > 0 {
				// The interval event fires at the interval's end boundary
				// (k+1)·T, so T divides out exactly.
				interval = ev.At / sim.Time(ev.K+1)
			}
		case telemetry.EventConflict:
			peer := int(ev.Value("peer"))
			if peer+1 > links {
				links = peer + 1
			}
			edges = append(edges, [2]int{ev.Link, peer})
		}
	}
	if links == 0 {
		return Config{}, fmt.Errorf("monitor: stream names no links")
	}
	if interval == 0 {
		return Config{}, fmt.Errorf("monitor: stream has no interval events to infer T from")
	}
	var graph *medium.Graph
	if len(edges) > 0 {
		// Conflict events are only emitted for non-complete graphs, so their
		// presence both reconstructs the interference topology and marks the
		// run as spatial-reuse: the DP family's collision-freedom proof is a
		// complete-graph property, so the collision_free checker stands down.
		g, err := medium.NewGraph(links, edges)
		if err != nil {
			return Config{}, fmt.Errorf("monitor: conflict events do not form a graph: %w", err)
		}
		graph = g
	}
	pairs := links / 2
	if pairs == 0 {
		pairs = 1
	}
	return Config{
		Links:         links,
		Interval:      interval,
		CollisionFree: dpFamily && graph == nil,
		SwapPairs:     pairs,
		Conflicts:     graph,
	}, nil
}

var _ telemetry.Sink = (*Monitor)(nil)
