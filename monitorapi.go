package rtmac

import (
	"errors"
	"fmt"
	"io"

	"rtmac/internal/monitor"
	"rtmac/internal/telemetry"
)

// MonitorConfig configures the runtime invariant monitor attached by
// Simulation.EnableMonitor.
type MonitorConfig struct {
	// Strict fails the run at the end of the first violating interval:
	// Simulation.Run returns the violation as an error instead of letting a
	// broken simulation grind on.
	Strict bool
	// NoFlightRecorder leaves out the flight recorder, which keeps the last
	// DefaultFlightRecorderIntervals intervals of raw events for post-mortem
	// dumps. The checks are unchanged; the dump methods then return an error.
	// Sweeps of many short simulations that never dump set it.
	NoFlightRecorder bool
}

// DefaultFlightRecorderIntervals is how many recent intervals of raw events
// the monitor's crash recorder retains for post-mortem dumps.
const DefaultFlightRecorderIntervals = 64

// Violation is one invariant breach found by the monitor: the check that
// fired, where in the run it happened, and a human-readable explanation.
type Violation struct {
	// Check names the checker ("permutation_valid", "single_adjacent_swap",
	// "collision_free", "debt_sane", "airtime_conserved").
	Check string
	// K is the interval the violated evidence belongs to.
	K int64
	// At is the simulated time of the triggering event.
	At Time
	// Link is the link concerned, or −1 for network-wide violations.
	Link int
	// Msg is the human-readable detail.
	Msg string
	// Fields carries the checker-specific numeric payload.
	Fields map[string]float64
}

func (v Violation) String() string {
	return monitor.Violation(v).String()
}

func violationsOut(in []monitor.Violation) []Violation {
	out := make([]Violation, len(in))
	for i, v := range in {
		out[i] = Violation(v)
	}
	return out
}

// Monitor is a running simulation's invariant monitor: it watches the
// interval loop for breaches of the paper's structural guarantees (σ
// bijectivity, single-adjacent-swap, collision-freedom, Eq. 1 debt
// bookkeeping, airtime conservation) and, unless NoFlightRecorder was set,
// carries the flight recorder.
type Monitor struct {
	m        *monitor.Monitor
	rec      *monitor.FlightRecorder
	interval Time
}

// simFanout forwards an event to every sink attached to the simulation at
// emission time. It is the network's event sink, and the monitor uses it as
// its violation output, so violation events appear on the JSONL stream, the
// flight recorder, and the Perfetto trace. The monitor is a probe that runs after the event stream at every
// site, so each violation follows the event that triggered it.
type simFanout struct{ s *Simulation }

func (f simFanout) Emit(ev telemetry.Event) {
	for _, sink := range f.s.sinks {
		sink.Emit(ev)
	}
}

// EnableMonitor attaches the runtime invariant monitor to the simulation.
// Call it before Run; intervals already simulated are not audited. The
// checker catalog is derived from the configuration: collision-freedom is
// enforced for the protocols that guarantee it (DB-DP, LDF/ELDF, TDMA,
// frame-based CSMA) and the swap allowance follows WithSwapPairs.
// Violations are counted in the telemetry registry (rtmac_monitor_*),
// surfaced as "violation" events on any attached streams, and — with
// cfg.Strict — abort Run at the end of the offending interval.
func (s *Simulation) EnableMonitor(cfg MonitorConfig) (*Monitor, error) {
	// On a partial conflict graph, collision-freedom is only enforced for
	// policies that keep the guarantee under spatial reuse (LDF/ELDF, TDMA,
	// frame-based CSMA); DB-DP's proof is a complete-graph property, and the
	// airtime checker takes over with the graph-aware overlap rule.
	collisionFree := s.cfgProt.collisionFree
	if s.conflicts != nil && !s.conflicts.Complete() && !s.cfgProt.collisionFreeOnGraph {
		collisionFree = false
	}
	m, err := monitor.New(monitor.Config{
		Links:         len(s.req),
		Interval:      s.profile.Interval,
		CollisionFree: collisionFree,
		SwapPairs:     s.cfgProt.swapPairs,
		Conflicts:     s.conflicts.graph(),
		Strict:        cfg.Strict,
		Registry:      s.nw.Telemetry(),
		Output:        simFanout{s: s},
	})
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	mon := &Monitor{m: m, interval: s.profile.Interval}
	if !cfg.NoFlightRecorder {
		if mon.rec, err = monitor.NewFlightRecorder(DefaultFlightRecorderIntervals); err != nil {
			return nil, fmt.Errorf("rtmac: %w", err)
		}
		s.addSink(mon.rec)
	}
	s.nw.AddProbe(m)
	if cfg.Strict {
		s.nw.SetIntervalCheck(m.Err)
	}
	return mon, nil
}

// errNoFlightRecorder is what the dump methods return for a monitor enabled
// with NoFlightRecorder.
var errNoFlightRecorder = errors.New("rtmac: monitor has no flight recorder (MonitorConfig.NoFlightRecorder)")

// Count returns the total number of violations observed so far.
func (m *Monitor) Count() int64 { return m.m.Count() }

// Violations returns the retained violations in detection order (bounded;
// Count reports the true total).
func (m *Monitor) Violations() []Violation { return violationsOut(m.m.Violations()) }

// Err returns the sticky first-violation error in Strict mode, nil otherwise.
func (m *Monitor) Err() error { return m.m.Err() }

// WriteFlightRecorder dumps the retained event window as JSON Lines — the
// same format StreamEvents writes, so `rtmacsim -check` can audit a dump
// directly.
func (m *Monitor) WriteFlightRecorder(w io.Writer) error {
	if m.rec == nil {
		return errNoFlightRecorder
	}
	return m.rec.WriteJSONL(w)
}

// WriteFlightRecorderTimeline dumps the retained window as a human-readable
// per-interval timeline for post-mortem reading without tooling.
func (m *Monitor) WriteFlightRecorderTimeline(w io.Writer) error {
	if m.rec == nil {
		return errNoFlightRecorder
	}
	return m.rec.WriteTimeline(w)
}

// RenderInterval draws the k-th interval from the flight recorder's tx
// events as an ASCII timeline, one lane per link: 'D' delivered data, 'x'
// channel loss, 'C' collision, 'e' empty priority-claiming frame, '.' idle.
// Only intervals still in the recorder's window can be drawn.
func (m *Monitor) RenderInterval(w io.Writer, k int64, width int) error {
	if m.rec == nil {
		return errNoFlightRecorder
	}
	from := Time(k) * m.interval
	return monitor.RenderTimeline(w, m.rec.Events(), from, from+m.interval, width)
}

// FlightRecorderEvents returns how many events the recorder has seen (0
// without one).
func (m *Monitor) FlightRecorderEvents() int64 {
	if m.rec == nil {
		return 0
	}
	return m.rec.Total()
}

// PerfettoTrace is a Chrome/Perfetto trace_event export attached to a
// simulation; open the written file at ui.perfetto.dev or chrome://tracing.
type PerfettoTrace struct {
	p *monitor.Perfetto
}

// ExportPerfetto attaches a Perfetto trace exporter writing trace_event JSON
// to w: one track per link carrying transmission spans, a network track
// carrying swaps and violations, and counter tracks for interval and debt
// trajectories. Call before Run, and Flush when the run completes to close
// the JSON document.
func (s *Simulation) ExportPerfetto(w io.Writer) *PerfettoTrace {
	p := monitor.NewPerfetto(w, len(s.req))
	s.addSink(p)
	return &PerfettoTrace{p: p}
}

// Count returns how many trace events were written, metadata included.
func (t *PerfettoTrace) Count() int64 { return t.p.Count() }

// Flush closes the JSON document and reports the first write error.
func (t *PerfettoTrace) Flush() error { return t.p.Flush() }

// ValidatePerfettoTrace parses a trace_event JSON document and returns the
// number of trace events, rejecting empty traces and events without a phase.
// CI uses it to guard that exported traces load in a viewer.
func ValidatePerfettoTrace(r io.Reader) (int, error) {
	return monitor.ValidatePerfetto(r)
}

// AuditEvents replays a recorded event stream (as decoded by DecodeEvents)
// through the monitor's checker catalog and returns every violation found.
// The monitoring configuration — link count, interval length, whether the
// run was collision-free — is inferred from the stream itself; see
// docs/OBSERVABILITY.md for the inference rules and their limits (sampled
// streams audit only what they retain).
func AuditEvents(events []Event) ([]Violation, error) {
	cfg, err := monitor.InferConfig(events)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	vs, err := monitor.Audit(events, cfg)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	return violationsOut(vs), nil
}
